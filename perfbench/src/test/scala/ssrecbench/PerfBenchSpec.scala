package ssrecbench

import java.io.File
import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods
import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Benchmark checks at `SocialData.tiny` scale. Loops are bounded by
  * operation count, not by the clock, so every run consumes the same stream.
  */
class PerfBenchSpec extends AnyFunSuite {

  lazy val spark: SparkSession = Main.session()

  private val maxOps = Map("query-frozen" -> 80, "update-batch" -> 2, "stream-mixed" -> 60)

  private def args(w: String, trace: Boolean) =
    Main.Args(w, seed = 42L, seconds = 1000, trace = trace, traceDir = None, Scale.tiny, maxOps(w))

  private lazy val reports: Map[(String, Boolean), Main.Report] =
    (for (w <- Workloads.names; t <- Seq(false, true)) yield (w, t) -> Main.run(spark, args(w, t))).toMap

  /** (name, unit) pairs of one metric list of BENCHMARK.json. */
  private def declared(list: String): Seq[(String, String)] = {
    implicit val formats: Formats = DefaultFormats
    val json = JsonMethods.parse(new File("../BENCHMARK.json"))
    (json \ list).children.map(m => ((m \ "name").extract[String], (m \ "unit").extract[String]))
  }

  private def value(r: Main.Report, name: String): Double =
    (r.metrics ++ r.notes).find(_.name == name).getOrElse(fail(s"no metric $name")).value

  // At this scale the default (hash-located) search can miss users the scan
  // finds, so a run may report mismatches; its other checks must hold.
  test("every workload emits each declared metric with its unit") {
    Workloads.names.foreach { w =>
      val plain = reports((w, false))
      val traced = reports((w, true))
      assert(plain.metrics.map(m => (m.name, m.unit)) == declared("end_to_end"), w)
      assert(traced.metrics.map(m => (m.name, m.unit)) == declared("per_layer"), w)
      assert(plain.attempted > 0 && plain.failed == math.round(value(plain, "checked") * value(plain, "topk_mismatch_share")), w)
      assert(value(traced, "probe_items_same") == 1.0, w)
    }
  }

  test("p_at_30 and the mismatch share agree between traced and untraced runs") {
    Workloads.names.foreach { w =>
      val plain = reports((w, false))
      val traced = reports((w, true))
      assert(value(plain, "p_at_30") == value(traced, "p_at_30"), w)
      assert(value(plain, "topk_mismatch_share") == value(traced, "topk_mismatch_share"), w)
    }
  }

  test("traced replays leave the model as an untraced model fed the same stream") {
    val cfg = Scale.tiny.data
    val ss = Experiments.defaultSs(cfg)
    val t = Setup.run(spark, cfg, ss, new Tracer(false)).trained
    val stream = TestStream.of(t)
    Seq("update-batch", "stream-mixed").foreach { w =>
      val plain = new Serving(Experiments.buildModel(t, ss), new Tracer(false), Workloads.K)
      val tracer = new Tracer(true)
      val traced = new Serving(Experiments.buildModel(t, ss), tracer, Workloads.K)
      Workloads.run(w, plain, stream, Scale.tiny, 1000, maxOps(w))
      Workloads.run(w, traced, stream, Scale.tiny, 1000, maxOps(w))
      assert(tracer.durations("core.ingest_refresh").nonEmpty, w)
      stream.arrivals.take(50).map(_.item).foreach { v =>
        assert(plain.model.recommend(v, Workloads.K) == traced.model.recommend(v, Workloads.K), w)
      }
    }
  }

  test("self time subtracts the time of direct children") {
    val tr = new Tracer(true)
    tr.span("outer") { tr.span("core.inner")(Thread.sleep(20)); Thread.sleep(10) }
    val self = tr.selfNanos
    val outer = tr.durations("outer").head
    val inner = tr.durations("core.inner").head
    assert(self("outer") == outer - inner)
    assert(self("core.inner") == inner)
    assert(Layers.layerOf("core.inner") == "core" && Layers.layerOf("outer") == "bench")
  }
}
