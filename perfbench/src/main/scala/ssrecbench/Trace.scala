package ssrecbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** One recorded span: a call into a layer, timed from the benchmark's side.
  * `parent` is the index of the enclosing span (-1 at top level) and `op` the
  * item the call served, or minus the sequence number of its `observe` batch
  * (0 for set-up).
  */
final case class Span(name: String, start: Long, end: Long, parent: Int, op: Long) {
  def nanos: Long = end - start
}

/** In-memory span recorder. When disabled, `span` runs its body and records
  * nothing, so the untraced run pays one branch per call.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Int] // indices of the spans still running
  private var opId = 0L
  private val counts = scala.collection.mutable.Map.empty[String, (Double, Long)]

  /** Tag the spans that follow with the item or batch they serve. */
  def op(id: Long): Unit = opId = id

  /** Record one observation of a count (entities per query, users per call…). */
  def count(name: String, v: Double): Unit = if (enabled) {
    val (s, n) = counts.getOrElse(name, (0.0, 0L))
    counts(name) = (s + v, n + 1)
  }

  def countSum(name: String): Double = counts.get(name).fold(0.0)(_._1)

  def countMean(name: String): Double = counts.get(name).fold(0.0) { case (s, n) => s / n }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val idx = spans.length
      spans += null // reserve the slot so children see a stable parent index
      val parent = open.headOption.getOrElse(-1)
      open = idx :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(idx) = Span(name, t0, System.nanoTime(), parent, opId)
        open = open.tail
      }
    }

  def size: Int = spans.length

  /** Durations in nanoseconds of every span with this name. */
  def durations(name: String): IndexedSeq[Long] =
    spans.iterator.filter(_.name == name).map(_.nanos).toIndexedSeq

  /** Self time per span name: each span's duration minus the time its direct
    * children cover.
    */
  def selfNanos: Map[String, Long] = {
    val childTime = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) childTime(s.parent) += s.nanos)
    spans.indices.groupMapReduce(i => spans(i).name)(i => spans(i).nanos - childTime(i))(_ + _)
  }

  /** Write the spans as tab-separated lines: name, start, end, parent, op. */
  def writeTo(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file)
    try {
      w.println("name\tstart_ns\tend_ns\tparent\top")
      spans.foreach(s => w.println(s"${s.name}\t${s.start}\t${s.end}\t${s.parent}\t${s.op}"))
    } finally w.close()
  }
}
