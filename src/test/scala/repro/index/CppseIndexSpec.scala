package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.hmm.IoHmm
import repro.testutil.Fixtures
import scala.util.Random

class CppseIndexSpec extends AnyFunSuite {
  import Fixtures._

  private def makeIndex(nUsers: Int, maxBlocks: Int, seed: Long): CppseIndex = {
    val rnd = new Random(seed)
    val profiles = (0L until nUsers.toLong).map(u => randProfile(u, rnd))
    new CppseIndex(256, 4, params, collection, NCats).build(profiles, maxBlocks)
  }

  private def makeProfileFor(userId: Long, events: Seq[CompactEvent]): UserProfile =
    Profiles.build(userId, events, IoHmm.random(2, NZ, NCats, seed = userId), NCats, 5)

  test("build indexes every profile") {
    val idx = makeIndex(40, 4, 1)
    assert(idx.profiles.size == 40)
    (0L until 40L).foreach(u => assert(idx.blockOf(u).isDefined))
  }

  test("blocks stay within the budget") {
    (1 to 6).foreach { mb =>
      val idx = makeIndex(30, mb, 2)
      assert(idx.numBlocks <= mb && idx.numBlocks >= 1)
    }
  }

  test("each category has one tree per block, holding all block users") {
    val idx = makeIndex(25, 3, 3)
    (0 until NCats).foreach { c =>
      val trees = idx.treesOfCategory(c)
      assert(trees.size == idx.numBlocks)
      assert(trees.map(_.size).sum == 25, s"category $c covers all users")
    }
  }

  test("exact topK equals the sequential scan") {
    val rnd = new Random(4)
    val idx = makeIndex(60, 5, 4)
    (1 to 30).foreach { i =>
      val q = randQuery(rnd)
      val k = rnd.nextInt(12) + 1
      val got = idx.topK(q, k)
      val want = idx.scanTopK(q, k)
      assert(sameTopK(got, want), s"case $i: index=$got scan=$want")
    }
  }

  test("topK scores are sorted descending") {
    val rnd = new Random(5)
    val idx = makeIndex(50, 4, 5)
    (1 to 10).foreach { _ =>
      val scores = idx.topK(randQuery(rnd), 10).map(_._2)
      assert(scores == scores.sorted(Ordering[Double].reverse))
    }
  }

  test("locateTrees only returns trees of the query category") {
    val rnd = new Random(7)
    val idx = makeIndex(40, 4, 7)
    (1 to 20).foreach { _ =>
      val q = randQuery(rnd)
      idx.locateTrees(q).foreach(t => assert(t.category == q.category))
    }
  }

  test("topK with k exceeding the population returns everyone (exact mode)") {
    val idx = makeIndex(12, 2, 8)
    assert(idx.topK(randQuery(new Random(8)), 100).size == 12)
  }

  test("applyUpdates: existing user statistics change") {
    val rnd = new Random(9)
    val idx = makeIndex(20, 2, 9)
    val before = idx.profiles(3L).totalLong + idx.profiles(3L).window.size
    // Enough events to force at least one window flush.
    val report = idx.applyUpdates(Seq((3L, randEvents(rnd, 12))), makeProfileFor)
    assert(report.updatedUsers == 1 && report.newUsers == 0)
    val p = idx.profiles(3L)
    assert(p.totalLong + p.window.size == before + 12)
  }

  test("applyUpdates: trees reflect the updated leaf") {
    val rnd = new Random(10)
    val idx = makeIndex(20, 2, 10)
    idx.applyUpdates(Seq((5L, randEvents(rnd, 15))), makeProfileFor)
    val b = idx.blockOf(5L).get
    (0 until NCats).foreach { c =>
      val leaf = idx.tree(TreeRef(b, c)).get.leafOf(5L).get
      val expect = Profiles.entryStats(idx.profiles(5L), c, params.mu, collection)
      assert(leaf.stats == expect, s"category $c stale")
    }
  }

  test("applyUpdates: new users are inserted into every category tree of a block") {
    val rnd = new Random(11)
    val idx = makeIndex(20, 3, 11)
    val report = idx.applyUpdates(Seq((999L, randEvents(rnd, 10))), makeProfileFor)
    assert(report.newUsers == 1)
    val b = idx.blockOf(999L).get
    (0 until NCats).foreach(c => assert(idx.tree(TreeRef(b, c)).get.leafOf(999L).isDefined))
    assert(idx.profiles.contains(999L))
  }

  test("applyUpdates: exact topK still equals scan afterwards") {
    val rnd = new Random(12)
    val idx = makeIndex(40, 4, 12)
    val ups = (0L until 10L).map(u => (u, randEvents(rnd, 14))) ++
      Seq((500L, randEvents(rnd, 8)), (501L, randEvents(rnd, 8)))
    idx.applyUpdates(ups, makeProfileFor)
    (1 to 20).foreach { _ =>
      val q = randQuery(rnd)
      val got = idx.topK(q, 8)
      val want = idx.scanTopK(q, 8)
      assert(sameTopK(got, want), s"index=$got scan=$want")
    }
  }

  /** Profiles with identical statistics: one shared event stream and b-HMM. */
  private def twins(ids: Seq[Long], seed: Long): Seq[UserProfile] = {
    val events = randEvents(new Random(seed), 30)
    val model = IoHmm.random(2, NZ, NCats, seed = seed)
    ids.map(u => Profiles.build(u, events, model, NCats, 5))
  }

  test("topK breaks ties at the k-th score by lower userId, as scanTopK does") {
    val rnd = new Random(17)
    val tied = Seq(41L, 7L, 23L, 3L, 38L, 12L, 30L, 19L)
    val idx = new CppseIndex(256, 3, params, collection, NCats).build(twins(tied, 17), 1)
    (1 to 10).foreach { _ =>
      val q = randQuery(rnd)
      (1 to tied.size).foreach { k =>
        val got = idx.topK(q, k)
        assert(got.map(_._1) == tied.sorted.take(k), s"k=$k")
        assert(sameTopK(got, idx.scanTopK(q, k)))
      }
    }
  }

  test("property: topK equals scanTopK after random updates and inserts") {
    (1 to 8).foreach { seed =>
      val rnd = new Random(100 + seed)
      val base = (0L until 30L).map(u => randProfile(u, rnd)) ++ twins(30L until 36L, seed)
      val idx = new CppseIndex(64, 2 + rnd.nextInt(4), params, collection, NCats)
        .build(base, 1 + rnd.nextInt(5))
      var nextId = 1000L
      (1 to 4).foreach { round =>
        val existing = idx.profiles.keys.toSeq.sorted
        val updated = rnd.shuffle(existing).take(rnd.nextInt(8))
          .map(u => (u, randEvents(rnd, 1 + rnd.nextInt(12))))
        val inserted = (0 until rnd.nextInt(4))
          .map { _ => nextId += 1; (nextId, randEvents(rnd, 1 + rnd.nextInt(10))) }
        idx.applyUpdates(updated ++ inserted, makeProfileFor)
        (1 to 10).foreach { _ =>
          val q = randQuery(rnd)
          val k = 1 + rnd.nextInt(idx.profiles.size + 5)
          val got = idx.topK(q, k)
          val want = idx.scanTopK(q, k)
          assert(sameTopK(got, want), s"seed $seed round $round k=$k: index=$got scan=$want")
        }
      }
    }
  }

  test("applyUpdates reports new hash triads for unseen category-entity pairs") {
    val idx = makeIndex(10, 2, 13)
    // An event with an entity id far outside the fixture vocabulary.
    val weird = Seq.fill(6)(CompactEvent(0, 1L, Seq(95), 0))
    val report = idx.applyUpdates(Seq((0L, weird)), makeProfileFor)
    assert(report.newHashTriads >= 1)
  }

  test("k must be positive") {
    val idx = makeIndex(5, 1, 14)
    intercept[IllegalArgumentException](idx.topK(randQuery(new Random(14)), 0))
  }

  test("block statistics cover the Table-II quantities") {
    val idx = makeIndex(30, 3, 15)
    (0 until idx.numBlocks).foreach { b =>
      assert(idx.blockEntityCount(b) >= 0 && idx.blockEntityCount(b) <= NEnt)
      assert(idx.blockProducerCount(b) >= 0 && idx.blockProducerCount(b) <= NProd)
    }
  }

  test("fewer blocks means larger per-block vocabularies (Table-II shape)") {
    val one = makeIndex(60, 1, 16)
    val many = makeIndex(60, 8, 16)
    val maxOne = (0 until one.numBlocks).map(one.blockEntityCount).max
    val maxMany = (0 until many.numBlocks).map(many.blockEntityCount).max
    assert(maxOne >= maxMany)
  }
}
