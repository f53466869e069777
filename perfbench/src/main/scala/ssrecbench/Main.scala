package ssrecbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.exp.Experiments
import repro.index.{SigInner, SigNode, TreeRef}

/** One benchmark run: train ssRec on YTube-lite from the given generator
  * seed, run one workload against the public serving API, check rankings
  * against the sequential scan, and print every metric by name and unit.
  * The last line of standard output is a JSON summary.
  *
  * {{{
  * Main --workload query-frozen|update-batch|stream-mixed --seed 42 --seconds 15
  *      --trace 0|1 [--trace-dir DIR]
  * }}}
  *
  * `--trace 0` reports the end-to-end metrics. `--trace 1` runs the loop
  * twice, untraced on one model and traced on an identical copy fed the same
  * stream, and reports the per-layer metrics, the tracing overhead, and
  * whether both copies still rank the probe items the same.
  */
object Main {

  final case class Metric(name: String, value: Double, unit: String)

  final case class Report(correct: Boolean, attempted: Long, failed: Long,
                          metrics: Seq[Metric], notes: Seq[Metric]) {
    def json: String = {
      val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "0.0" else v.toString

  /** `scale` and `maxOps` (a loop bounded by operations, not time) are set
    * by the tests only.
    */
  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        traceDir: Option[File], scale: Scale = Scale.ytube,
                        maxOps: Int = Int.MaxValue)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = kv.getOrElse("workload", sys.error("--workload is required"))
    require(Workloads.names.contains(workload), s"unknown workload $workload")
    Args(workload,
         kv.get("seed").fold(42L)(_.toLong),
         kv.get("seconds").fold(15)(_.toInt),
         kv.get("trace").contains("1"),
         kv.get("trace-dir").map(new File(_)))
  }

  def session(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("ssrec-perfbench")
      // A fixed partition count keeps the trained model independent of the
      // core count (collect order feeds the producer-state alignment).
      .config("spark.sql.shuffle.partitions", 4)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val spark = session()
    val report = try run(spark, args) finally spark.stop()
    (report.notes ++ report.metrics).foreach(m => println(f"metric ${m.name}%-34s ${m.value}%14.6f ${m.unit}"))
    println(report.json)
  }

  def run(spark: SparkSession, a: Args): Report = {
    val cfg = a.scale.data.copy(seed = a.seed)
    val ss = Experiments.defaultSs(cfg)
    val tracer = new Tracer(a.trace)
    val setup = Setup.run(spark, cfg, ss, tracer)
    val stream = TestStream.of(setup.trained)
    val off = new Tracer(false)
    val measured = new Serving(setup.model, off, Workloads.K)
    def copy(): Serving = new Serving(Experiments.buildModel(setup.trained, ss), off, Workloads.K)
    Workloads.warmUp(a.workload, measured, copy(), stream, a.scale)
    val shapeStart = Shape.of(setup.model.index)
    val pass = Workloads.run(a.workload, measured, stream, a.scale, a.seconds, a.maxOps)
    if (!a.trace) endToEnd(a, setup.seconds, pass)
    else {
      // Same stream, same number of operations, on an identical copy (or, for
      // the read-only query workload, on the same model).
      val traced = new Serving(
        if (a.workload == "query-frozen") setup.model else copy().model, tracer, Workloads.K)
      val tpass = Workloads.run(a.workload, traced, stream, a.scale, a.seconds, pass.ops)
      val probeSame = pass.probe.forall(v =>
        measured.model.recommend(v, Workloads.K) == traced.model.recommend(v, Workloads.K))
      a.traceDir.foreach(d => tracer.writeTo(new File(d, s"spans-${a.workload}-${a.seed}.tsv")))
      Layers.report(a, tracer, pass, tpass, probeSame, shapeStart, Shape.of(traced.model.index))
    }
  }

  private def endToEnd(a: Args, setupS: Double, p: Pass): Report = {
    val lat = p.latency.map(_ / 1e6).sorted.toIndexedSeq
    val throughput = a.workload match {
      case "update-batch" => p.events / (p.busyNanos / 1e9)
      case _ => p.ops / (p.elapsedNanos / 1e9)
    }
    val mismatchShare = p.mismatched.toDouble / math.max(1, p.checked)
    val failed = p.failed + p.mismatched
    val metrics = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("latency_ms_p50", Stats.pct(lat, 0.50), "ms"),
      Metric("latency_ms_p90", Stats.pct(lat, 0.90), "ms"),
      Metric("throughput_per_s", throughput, "1/s"),
      Metric("p_at_30", p.precision.value(Workloads.K), "ratio"),
      Metric("topk_match_share", 1.0 - mismatchShare, "ratio"),
      Metric("heap_mb", Stats.heapMb(), "MB"),
    )
    // The same figures under the names used for each workload.
    val named = a.workload match {
      case "query-frozen" => Seq(
        Metric("query_ms_p50", Stats.pct(lat, 0.50), "ms"), Metric("query_ms_p99", Stats.pct(lat, 0.99), "ms"),
        Metric("query_items_per_s", throughput, "items/s"))
      case "update-batch" => Seq(
        Metric("update_events_per_s", throughput, "events/s"), Metric("update_batches", p.ops, "count"))
      case _ => Seq(
        Metric("stream_rec_ms_p50", Stats.pct(lat, 0.50), "ms"), Metric("stream_rec_ms_p99", Stats.pct(lat, 0.99), "ms"),
        Metric("stream_items_per_s", throughput, "items/s"))
    }
    val notes = named ++ Seq(Metric("samples", lat.size, "count"), Metric("checked", p.checked, "count"),
                             Metric("topk_mismatch_share", mismatchShare, "ratio"))
    Report(correct = failed == 0 && p.ops > 0, attempted = p.ops + p.checked, failed = failed, metrics, notes)
  }
}

object Stats {
  /** Nearest-rank percentile of sorted values; 0 when there are none. */
  def pct(sorted: IndexedSeq[Double], q: Double): Double =
    if (sorted.isEmpty) 0.0 else sorted(math.max(0, math.ceil(q * sorted.size).toInt - 1))

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Heap in use after a forced collection, in MB. */
  def heapMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory() - rt.freeMemory()) / 1048576.0
  }
}

/** Shape of the CPPse-index, read through its public tree API. */
final case class Shape(trees: Int, leaves: Int, depthMax: Int, rootEntMean: Double,
                       rootEntMax: Int, rootProdMean: Double)

object Shape {
  private def depth(n: SigNode): Int = n match {
    case i: SigInner => 1 + i.children.iterator.map(depth).maxOption.getOrElse(0)
    case _ => 1
  }

  def of(idx: repro.index.CppseIndex): Shape = {
    val ts = for (b <- 0 until idx.numBlocks; c <- 0 until idx.nCategories; t <- idx.tree(TreeRef(b, c))) yield t
    val roots = ts.flatMap(_.root)
    Shape(ts.size, ts.map(_.size).sum, roots.map(depth).maxOption.getOrElse(0),
          Stats.mean(roots.map(_.stats.ent.size.toDouble)),
          roots.map(_.stats.ent.size).maxOption.getOrElse(0),
          Stats.mean(roots.map(_.stats.prod.size.toDouble)))
  }
}
