package ssrecbench

import java.util.concurrent.locks.LockSupport
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import repro.eval.Protocol
import repro.exp.Trained
import repro.socialdata.{Interaction, Item, SocialConfig, SocialData}

/** Sizes of one benchmark scale. */
final case class Scale(
    data: SocialConfig,
    batchEvents: Int,     // update-batch: events per `observe` call
    eventsPerSec: Double, // stream-mixed: offered rate of the interaction replay
    warmQueries: Int,     // arrivals ranked untimed before measuring
    warmEvents: Int,      // events observed untimed, on a separate model copy
    evalItems: Int,       // arrivals ranked after the loop for P@30
    checkItems: Int,      // of those, items checked against the scan
    streamCheckEvery: Int // stream-mixed: check every n-th ranked arrival
)

object Scale {
  val ytube: Scale = Scale(SocialData.ytubeLite, batchEvents = 5000, eventsPerSec = 60,
                           warmQueries = 1500, warmEvents = 300, evalItems = 3000, checkItems = 200,
                           streamCheckEvery = 8)
  val tiny: Scale = Scale(SocialData.tiny, batchEvents = 400, eventsPerSec = 2000,
                          warmQueries = 50, warmEvents = 50, evalItems = 150, checkItems = 30,
                          streamCheckEvery = 3)
}

/** An item arrival in `Protocol.evaluate` order: the item, the users that
  * interacted with it in its partition, and the index of its first event.
  */
final case class Arrival(item: Item, truth: Set[Long], at: Int)

/** The test partitions as one timestamp-ordered event stream. */
final case class TestStream(events: Array[Interaction], arrivals: Array[Arrival]) {
  /** Arrival starting at each event index, or null. */
  val arrivalAt: Array[Arrival] = {
    val a = new Array[Arrival](events.length)
    arrivals.foreach(x => a(x.at) = x)
    a
  }
}

object TestStream {
  def of(t: Trained, trainParts: Int = 2): TestStream = {
    val events = ArrayBuffer.empty[Interaction]
    val arrivals = ArrayBuffer.empty[Arrival]
    val seen = scala.collection.mutable.Set.empty[Long]
    (trainParts until t.partitions.length).foreach { pi =>
      val part = t.partitions(pi)
      val truth = Protocol.truthOf(part)
      part.sortBy(_.ts).foreach { e =>
        if (seen.add(e.itemId))
          arrivals += Arrival(Item(e.itemId, e.ts, e.category, e.producerId, e.entities, zPlanted = -1),
                              truth.getOrElse(e.itemId, Set.empty), events.length)
        events += e
      }
    }
    TestStream(events.toArray, arrivals.toArray)
  }
}

/** What one pass of a workload loop did. Latencies are in nanoseconds. */
final class Pass {
  var ops = 0               // recommend calls, or observe calls in update-batch
  var events = 0L           // interactions passed to observe
  var failed = 0            // operations that threw
  var busyNanos = 0L        // time spent serving, replays included when traced
  var elapsedNanos = 0L     // wall time of the loop
  var checked = 0
  var mismatched = 0
  val latency = ArrayBuffer.empty[Long]
  val lag = ArrayBuffer.empty[Long]
  val flushEvents = ArrayBuffer.empty[Int]
  val precision: Protocol.PrecisionAtK = Protocol.PrecisionAtK(Seq(Workloads.K))
  var probe: IndexedSeq[Item] = IndexedSeq.empty // items whose rankings compare passes
}

object Workloads {
  val K = 30
  val names: Seq[String] = Seq("query-frozen", "update-batch", "stream-mixed")

  /** True when two score lists agree position by position within 1e-9
    * (users tied at the k-th score may come in any order).
    */
  def sameScores(a: Seq[(Long, Double)], b: Seq[(Long, Double)]): Boolean =
    a.length == b.length && a.zip(b).forall { case ((_, x), (_, y)) => math.abs(x - y) <= 1e-9 }

  /** Compare the index's ranking of an item with the sequential scan. */
  def check(s: Serving, a: Arrival, recs: Seq[(Long, Double)], p: Pass): Unit = {
    p.checked += 1
    val ok = try sameScores(recs, s.scan(a.item)) catch { case NonFatal(_) => false }
    if (!ok) p.mismatched += 1
  }

  private def recommendChecked(s: Serving, a: Arrival, p: Pass): Seq[(Long, Double)] =
    try s.recommend(a.item)
    catch { case NonFatal(_) => p.failed += 1; Seq.empty }

  /** A loop given `maxOps` runs exactly that many operations; otherwise it
    * runs until `seconds` have passed.
    */
  private def more(done: Int, maxOps: Int, t0: Long, seconds: Double): Boolean =
    if (maxOps < Int.MaxValue) done < maxOps else System.nanoTime() - t0 < seconds * 1e9

  /** Rank `evalItems` arrivals from arrival `first` on, with the model as the
    * loop left it: P@30 over all of them, the scan check on an even sample of
    * `checkItems`. `ranked` holds rankings the loop already made.
    */
  private def evaluate(s: Serving, st: TestStream, first: Int, sc: Scale, p: Pass,
                       ranked: IndexedSeq[Seq[(Long, Double)]] = IndexedSeq.empty): Unit = {
    val items = st.arrivals.slice(first, first + sc.evalItems)
    val stride = math.max(1, items.length / sc.checkItems)
    val probe = ArrayBuffer.empty[Item]
    items.indices.foreach { i =>
      val a = items(i)
      val recs = if (i < ranked.length) ranked(i) else recommendChecked(s, a, p)
      p.precision.record(recs.map(_._1), a.truth)
      if (i % stride == 0 && probe.length < sc.checkItems) { check(s, a, recs, p); probe += a.item }
    }
    p.probe = probe.toIndexedSeq
  }

  /** Index of the first arrival at or after event `consumed`. */
  private def arrivalAfter(st: TestStream, consumed: Long): Int = {
    val i = st.arrivals.indexWhere(_.at >= consumed)
    if (i < 0) math.max(0, st.arrivals.length - 1) else i
  }

  /** Every distinct test arrival, in protocol order, ranked against the
    * frozen model: closed loop, one caller, cycling over the arrivals.
    */
  def queryFrozen(s: Serving, st: TestStream, sc: Scale, seconds: Double, maxOps: Int, p: Pass): Unit = {
    val n = st.arrivals.length
    val firstRanked = ArrayBuffer.empty[Seq[(Long, Double)]]
    val t0 = System.nanoTime()
    while (more(p.ops, maxOps, t0, seconds)) {
      val a = st.arrivals(p.ops % n)
      val ts = System.nanoTime()
      val recs = recommendChecked(s, a, p)
      val d = System.nanoTime() - ts
      p.latency += d; p.busyNanos += d; p.ops += 1
      if (firstRanked.length < sc.evalItems && p.ops <= n) firstRanked += recs
    }
    p.elapsedNanos = System.nanoTime() - t0
    evaluate(s, st, 0, sc, p, firstRanked.toIndexedSeq)
  }

  /** Test interactions in timestamp order, `batchEvents` per `observe` call,
    * until the time is up (at least one batch). Closed loop, no timed queries.
    */
  def updateBatch(s: Serving, st: TestStream, sc: Scale, seconds: Double, maxOps: Int, p: Pass): Unit = {
    val nBatches = math.max(1, st.events.length / sc.batchEvents)
    val t0 = System.nanoTime()
    while (p.ops < nBatches && (p.ops == 0 || more(p.ops, maxOps, t0, seconds))) {
      val batch = st.events.slice(p.ops * sc.batchEvents, (p.ops + 1) * sc.batchEvents).toSeq
      val ts = System.nanoTime()
      try s.observe(batch) catch { case NonFatal(_) => p.failed += 1 }
      val d = System.nanoTime() - ts
      p.latency += d; p.busyNanos += d; p.ops += 1; p.events += batch.size
    }
    p.elapsedNanos = System.nanoTime() - t0
    evaluate(s, st, arrivalAfter(st, p.events), sc, p)
  }

  /** Open loop: test interactions are due at `eventsPerSec`; an item's
    * arrival first flushes the buffered interactions through `observe`, then
    * ranks the item. Latency runs from the item's due time to its ranking.
    * Every `streamCheckEvery`-th ranking is checked while the schedule waits.
    */
  def streamMixed(s: Serving, st: TestStream, sc: Scale, seconds: Double, maxOps: Int, p: Pass): Unit = {
    val gap = 1e9 / sc.eventsPerSec
    val nEvents = math.min(st.events.length.toLong, math.ceil(seconds * sc.eventsPerSec).toLong).toInt
    val buffer = ArrayBuffer.empty[Interaction]
    val t0 = System.nanoTime()
    var origin = t0
    var i = 0
    while (i < nEvents && p.ops < maxOps) {
      val a = st.arrivalAt(i)
      if (a != null) {
        val due = origin + (i * gap).toLong
        waitUntil(due)
        val start = System.nanoTime()
        p.lag += start - due
        p.flushEvents += buffer.size
        if (buffer.nonEmpty) {
          try s.observe(buffer.toSeq) catch { case NonFatal(_) => p.failed += 1 }
          p.events += buffer.size
          buffer.clear()
        }
        val recs = recommendChecked(s, a, p)
        val end = System.nanoTime()
        p.latency += end - due; p.busyNanos += end - start; p.ops += 1
        if (p.ops % sc.streamCheckEvery == 0) {
          check(s, a, recs, p)
          origin += System.nanoTime() - end
        }
      }
      buffer += st.events(i)
      i += 1
    }
    p.elapsedNanos = System.nanoTime() - t0
    // The events buffered since the last flush stay unobserved.
    evaluate(s, st, arrivalAfter(st, i), sc, p)
  }

  private def waitUntil(t: Long): Unit = {
    var rest = t - System.nanoTime()
    while (rest > 0) {
      if (rest > 200000L) LockSupport.parkNanos(rest - 100000L)
      rest = t - System.nanoTime()
    }
  }

  def run(name: String, s: Serving, st: TestStream, sc: Scale, seconds: Double,
          maxOps: Int = Int.MaxValue): Pass = {
    val p = new Pass
    name match {
      case "query-frozen" => queryFrozen(s, st, sc, seconds, maxOps, p)
      case "update-batch" => updateBatch(s, st, sc, seconds, maxOps, p)
      case "stream-mixed" => streamMixed(s, st, sc, seconds, maxOps, p)
    }
    p
  }

  /** Untimed JIT warm-up that leaves the measured model as it was: queries
    * run on the measured model (`recommend` does not change it), updates on
    * a separate copy.
    */
  def warmUp(name: String, measured: Serving, copy: => Serving, st: TestStream, sc: Scale): Unit = {
    def queries(): Unit = st.arrivals.take(sc.warmQueries).foreach(a => measured.recommend(a.item))
    name match {
      case "query-frozen" => queries()
      case "update-batch" => copy.observe(st.events.take(sc.warmEvents).toSeq)
      case "stream-mixed" =>
        queries()
        val c = copy
        val buffer = ArrayBuffer.empty[Interaction]
        st.events.take(sc.warmEvents).zipWithIndex.foreach { case (e, i) =>
          val a = st.arrivalAt(i)
          if (a != null) {
            if (buffer.nonEmpty) { c.observe(buffer.toSeq); buffer.clear() }
            c.recommend(a.item)
          }
          buffer += e
        }
    }
  }
}
