package ssrecbench

import ssrecbench.Main.{Args, Metric, Report}

/** Per-layer metrics of a traced run, derived from its spans and counts. */
object Layers {

  /** Layers of the program, by span-name prefix; anything else is the
    * benchmark's own code.
    */
  val layers: Seq[String] = Seq("socialdata", "hmm", "core", "index", "eval")

  def layerOf(span: String): String = {
    val l = span.takeWhile(_ != '.')
    if (layers.contains(l)) l else "bench"
  }

  def report(a: Args, tr: Tracer, untraced: Pass, traced: Pass, probeSame: Boolean,
             start: Shape, end: Shape): Report = {
    def us(name: String): IndexedSeq[Double] = tr.durations(name).map(_ / 1e3).sorted
    def ms(name: String): IndexedSeq[Double] = tr.durations(name).map(_ / 1e6).sorted
    def totalUs(name: String): Double = tr.durations(name).sum / 1e3
    def p(xs: IndexedSeq[Double], q: Double): Double = Stats.pct(xs, q)

    val setup = Setup.stages.map(s => Metric(s"setup.${s}_s", tr.durations(s"setup.$s").sum / 1e9, "s"))

    val query = Seq(
      Metric("core.encode_us_p50", p(us("core.encode"), 0.5), "us"),
      Metric("core.query_entities_mean", tr.countMean("core.query_entities"), "count"),
      Metric("index.locate_us_p50", p(us("index.locate"), 0.5), "us"),
      Metric("index.trees_located_mean", tr.countMean("index.trees_located"), "count"),
      Metric("index.trees_category_mean", tr.countMean("index.trees_category"), "count"),
      Metric("index.topk_us_p50", p(us("index.topk"), 0.5), "us"),
      Metric("index.topk_us_p99", p(us("index.topk"), 0.99), "us"),
      Metric("index.scan_us_p50", p(us("index.scan"), 0.5), "us"),
      Metric("core.score_root_us_p50", p(us("core.score_root"), 0.5), "us"),
      Metric("core.score_leaf_us_p50", p(us("core.score_leaf"), 0.5), "us"),
    )

    // The replayed parts and the remainder add up to the observe time.
    val users = tr.countSum("update.users_per_call")
    def perUser(total: Double): Double = if (users > 0) total / users else 0.0
    val parts = Seq("core.ingest_refresh", "core.entry_stats", "index.leaf_update").map(totalUs)
    val update = Seq(
      Metric("update.observe_ms_p50", p(ms("core.observe"), 0.5), "ms"),
      Metric("update.users_per_call_mean", tr.countMean("update.users_per_call"), "count"),
      Metric("update.new_triads", tr.countSum("update.new_triads"), "count"),
      Metric("core.ingest_refresh_us_per_user", perUser(parts(0)), "us"),
      Metric("core.entry_stats_us_per_user", perUser(parts(1)), "us"),
      Metric("index.leaf_update_us_per_user", perUser(parts(2)), "us"),
      Metric("update.other_us_per_user", perUser(totalUs("core.observe") - parts.sum), "us"),
    )

    val streaming = a.workload == "stream-mixed"
    val stream = Seq(
      Metric("stream.flush_events_mean", Stats.mean(traced.flushEvents.map(_.toDouble)), "count"),
      Metric("stream.observe_ms_p99", if (streaming) p(ms("core.observe"), 0.99) else 0.0, "ms"),
      Metric("stream.recommend_ms_p99", if (streaming) p(ms("op.recommend"), 0.99) else 0.0, "ms"),
      Metric("stream.lag_ms_p99", p(traced.lag.map(_ / 1e6).sorted.toIndexedSeq, 0.99), "ms"),
    )

    def shape(tag: String, s: Shape) = Seq(
      Metric(s"index.trees_$tag", s.trees, "count"),
      Metric(s"index.leaves_$tag", s.leaves, "count"),
      Metric(s"index.depth_max_$tag", s.depthMax, "count"),
      Metric(s"index.root_ent_keys_mean_$tag", s.rootEntMean, "count"),
      Metric(s"index.root_ent_keys_max_$tag", s.rootEntMax, "count"),
      Metric(s"index.root_prod_keys_mean_$tag", s.rootProdMean, "count"),
    )

    val self = tr.selfNanos.groupMapReduce { case (n, _) => layerOf(n) } { case (_, t) => t }(_ + _)
    val selfTime = (layers :+ "bench").map(l => Metric(s"self.${l}_s", self.getOrElse(l, 0L) / 1e9, "s"))

    // Serving time per operation, traced against untraced, on the same stream.
    def perOp(x: Pass) = x.busyNanos.toDouble / math.max(1, x.ops)
    val overhead = Metric("trace.overhead_pct", 100.0 * (perOp(traced) / perOp(untraced) - 1.0), "%")

    val failed = traced.failed + traced.mismatched
    val notes = Seq(
      Metric("update.observe_total_ms", totalUs("core.observe") / 1e3, "ms"),
      Metric("spans", tr.size, "count"),
      Metric("probe_items_same", if (probeSame) 1 else 0, "bool"),
      Metric("p_at_30", traced.precision.value(Workloads.K), "ratio"),
      Metric("topk_mismatch_share", traced.mismatched.toDouble / math.max(1, traced.checked), "ratio"),
    )
    Report(correct = failed == 0 && probeSame && traced.ops == untraced.ops,
           attempted = traced.ops + traced.checked, failed = failed,
           setup ++ query ++ update ++ stream ++ shape("start", start) ++ shape("end", end) ++
             selfTime :+ overhead, notes)
  }
}
