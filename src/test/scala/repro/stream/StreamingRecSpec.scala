package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.eval.Protocol
import repro.socialdata.{Interaction, Item, SocialData}
import repro.testutil.Fixtures

class StreamingRecSpec extends SparkSpec {
  import StreamingRec._

  private val cfg = SocialData.tiny
  private val ss = SsRecConfig(nCategories = cfg.nCategories, nBStates = 2,
                               maxBlocks = 3, hmmIter = 10)
  private lazy val items = SocialData.items(spark, cfg).cache()
  private lazy val interactionsArr = SocialData.interactions(spark, cfg).collect()
  private lazy val model = {
    import spark.implicits._
    val parts = Protocol.split(interactionsArr.toSeq, 6)
    SsRec.train(spark, items, spark.createDataset((parts(0) ++ parts(1)).toSeq), ss)
  }

  private def runBatches[T](stream: MemoryStream[T],
                            out: org.apache.spark.sql.Dataset[_],
                            sink: String,
                            batches: Seq[Seq[T]],
                            outputMode: String): Unit = {
    val q = out.writeStream.format("memory").queryName(sink).outputMode(outputMode).start()
    try {
      batches.foreach { b => stream.addData(b); q.processAllAvailable() }
    } finally q.stop()
  }

  // ------------------------------------------------------------ advance unit

  test("advance fills then flushes the window like Profiles.ingest") {
    val cap = 3
    def e(c: Int) = CompactEvent(c, 0L, Seq(1), 0)
    var s = TrackState(Vector.empty, Map.empty, 0L)
    s = advance(s, e(0), cap); s = advance(s, e(1), cap); s = advance(s, e(2), cap)
    assert(s.window.size == 3 && s.flushes == 0)
    s = advance(s, e(3), cap)
    assert(s.window.map(_.category) == Vector(3))
    assert(s.catCount == Map(0 -> 1.0, 1 -> 1.0, 2 -> 1.0))
    assert(s.flushes == 1)
  }

  // -------------------------------------------------------- profile tracking

  test("trackProfiles maintains per-user window state across micro-batches") {
    import spark.implicits._
    implicit val sctx = spark.sqlContext
    val source = MemoryStream[Interaction]
    val snaps = trackProfiles(source.toDS(), windowCap = 3)
    def mk(u: Long, c: Int, ts: Long) = Interaction(u, ts, ts, c, 0L, Seq(1), 0)
    runBatches(source, snaps, "profile_snaps",
      Seq(
        Seq(mk(1, 0, 1), mk(1, 1, 2), mk(2, 4, 3)),
        Seq(mk(1, 2, 4), mk(1, 3, 5)), // 4th event flushes user 1's window
      ), "update")
    val rows = spark.table("profile_snaps").as[ProfileSnapshot].collect()
    val u1 = rows.filter(_.userId == 1L).sortBy(_.flushes)
    assert(u1.head.windowSize == 2 && u1.head.longTermCount == 0.0)
    assert(u1.last.flushes == 1 && u1.last.longTermCount == 3.0)
    val u2 = rows.filter(_.userId == 2L)
    assert(u2.nonEmpty && u2.head.windowSize == 1)
  }

  test("trackProfiles top category reflects the flushed history") {
    import spark.implicits._
    implicit val sctx = spark.sqlContext
    val source = MemoryStream[Interaction]
    val snaps = trackProfiles(source.toDS(), windowCap = 2)
    def mk(u: Long, c: Int, ts: Long) = Interaction(u, ts, ts, c, 0L, Seq(1), 0)
    runBatches(source, snaps, "profile_snaps2",
      Seq(Seq(mk(1, 5, 1), mk(1, 5, 2), mk(1, 0, 3))), "update")
    val last = spark.table("profile_snaps2").as[ProfileSnapshot].collect().head
    assert(last.topCategory == 5)
  }

  // ---------------------------------------------------------- recommendation

  test("initialCatStates builds one tree per category over all users") {
    val states = initialCatStates(model)
    assert(states.map(_._1).toSet == (0 until cfg.nCategories).toSet)
    states.foreach { case (_, cs) => assert(cs.tree.size == model.index.profiles.size) }
  }

  test("recommendStream emits the same top-k as the sequential scan") {
    import spark.implicits._
    implicit val sctx = spark.sqlContext
    val parts = Protocol.split(interactionsArr.toSeq, 6)
    val streamItems = Protocol.itemStream(parts(2)).take(12).toSeq
    val source = MemoryStream[Item]
    val recs = recommendStream(source.toDS(), model, k = 5)
    runBatches(source, recs, "stream_recs", Seq(streamItems), "append")
    val got = spark.table("stream_recs").as[Rec].collect()
      .groupBy(_.itemId).view.mapValues(_.sortBy(_.rank).map(r => (r.userId, r.score)).toSeq).toMap
    // Each category tree of the stream holds every user, so its answer is the scan's.
    streamItems.foreach { v =>
      val want = model.scanRecommend(v, 5)
      assert(Fixtures.sameTopK(got(v.itemId), want), s"item ${v.itemId}: stream=${got(v.itemId)} scan=$want")
    }
  }

  test("recommendStream ranks are 1..k with descending scores") {
    import spark.implicits._
    val rows = spark.table("stream_recs").as[Rec].collect().groupBy(_.itemId)
    rows.foreach { case (_, rs) =>
      val sorted = rs.sortBy(_.rank)
      assert(sorted.map(_.rank).toSeq == (1 to sorted.length))
      val scores = sorted.map(_.score).toSeq
      assert(scores == scores.sorted(Ordering[Double].reverse))
    }
  }

  // ------------------------------------------------------ windowed aggregate

  test("categoryTraffic matches the batch windowed aggregation") {
    import spark.implicits._
    implicit val sctx = spark.sqlContext
    val batch = items.collect().take(200).toSeq
    val source = MemoryStream[Item]
    val traffic = categoryTraffic(source.toDS(), "10 seconds")
    runBatches(source, traffic, "traffic", Seq(batch), "update")
    val got = spark.table("traffic").as[(Long, Int, Long)].collect()
      .map { case (w, c, n) => (w, c) -> n }.toMap
    val want = spark.createDataset(batch)
      .withColumn("eventTime", to_timestamp(from_unixtime(col("ts"))))
      .groupBy(window(col("eventTime"), "10 seconds"), col("category"))
      .agg(count(lit(1)).as("n"))
      .select(unix_timestamp(col("window.start")).as("w"), col("category"), col("n"))
      .as[(Long, Int, Long)].collect()
      .map { case (w, c, n) => (w, c) -> n }.toMap
    assert(got == want)
  }
}
