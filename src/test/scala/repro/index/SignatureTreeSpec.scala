package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.testutil.Fixtures
import scala.util.Random

class SignatureTreeSpec extends AnyFunSuite {
  import Fixtures._

  private def tree(entries: Seq[(Long, EntryStats)], fanout: Int = 4): SignatureTree =
    new SignatureTree(0, 0, fanout).build(entries)

  private def entries(n: Int, seed: Long): Seq[(Long, EntryStats)] = {
    val rnd = new Random(seed)
    (0L until n.toLong).map(u => (u, randStats(rnd)))
  }

  private def assertUpperBound(parent: EntryStats, child: EntryStats): Unit = {
    assert(parent.pL >= child.pL - 1e-12)
    assert(parent.pS >= child.pS - 1e-12)
    assert(parent.invTot >= child.invTot - 1e-12)
    child.prod.foreach { case (k, v) => assert(parent.prod.getOrElse(k, 0.0) >= v - 1e-12) }
    child.ent.foreach { case (k, v) => assert(parent.ent.getOrElse(k, 0.0) >= v - 1e-12) }
  }

  private def bruteTopK(t: SignatureTree, q: ItemQuery, k: Int): Seq[(Long, Double)] =
    t.leaves.map { case (u, s) => (u, Ranking.score(s, q, params, collection)) }
      .sortBy { case (u, s) => (-s, u) }.take(k)

  private def checkTreeBounds(n: SigNode): Unit = n match {
    case _: SigLeaf => ()
    case i: SigInner =>
      i.children.foreach { c => assertUpperBound(i.stats, c.stats); checkTreeBounds(c) }
  }

  test("build keeps every leaf") {
    val es = entries(37, 1)
    val t = tree(es)
    assert(t.size == 37)
    assert(t.leaves.toMap == es.toMap)
  }

  test("empty tree has no root") {
    assert(tree(Seq.empty).root.isEmpty && tree(Seq.empty).size == 0)
  }

  test("single-entry tree roots at the leaf") {
    val es = entries(1, 2)
    val t = tree(es)
    assert(t.root.get.isInstanceOf[SigLeaf])
  }

  test("merge is an element-wise upper bound") {
    val rnd = new Random(3)
    (1 to 50).foreach { _ =>
      val a = randStats(rnd); val b = randStats(rnd)
      val m = a.merge(b)
      assertUpperBound(m, a); assertUpperBound(m, b)
    }
  }

  test("merge is commutative") {
    val rnd = new Random(4)
    (1 to 20).foreach { _ =>
      val a = randStats(rnd); val b = randStats(rnd)
      assert(a.merge(b) == b.merge(a))
    }
  }

  test("every IEntry upper-bounds its entire subtree (Lemma 1)") {
    val t = tree(entries(63, 5))
    checkTreeBounds(t.root.get)
  }

  test("IEntry score upper-bounds every descendant leaf score (Lemma 2)") {
    val rnd = new Random(6)
    val t = tree(entries(50, 6))
    (1 to 30).foreach { _ =>
      val q = randQuery(rnd)
      val rootScore = Ranking.score(t.root.get.stats, q, params, collection)
      t.leaves.foreach { case (u, s) =>
        val ls = Ranking.score(s, q, params, collection)
        assert(rootScore >= ls - 1e-9, s"root bound violated for user $u")
      }
    }
  }

  test("knn equals brute force over the leaves") {
    val rnd = new Random(7)
    val t = tree(entries(80, 7))
    (1 to 40).foreach { i =>
      val q = randQuery(rnd)
      val k = rnd.nextInt(10) + 1
      val got = SignatureTree.topK(Seq(t), q, k, params, collection)
      val want = bruteTopK(t, q, k)
      assert(sameTopK(got, want), s"case $i: knn=$got brute=$want")
    }
  }

  test("knn with k larger than the tree returns all users") {
    val t = tree(entries(5, 8))
    assert(SignatureTree.topK(Seq(t), randQuery(new Random(8)), 50, params, collection).size == 5)
  }

  test("update replaces leaf stats and refreshes ancestors") {
    val rnd = new Random(9)
    val t = tree(entries(30, 9))
    val bigger = EntryStats(0.99, 0.99, 0.5, Map(1L -> 0.99), Map(2 -> 0.99))
    assert(t.update(7L, bigger))
    assert(t.leafOf(7L).get.stats == bigger)
    val rs = t.root.get.stats
    assert(rs.pL >= 0.99 && rs.prod.getOrElse(1L, 0.0) >= 0.99)
    checkTreeBounds(t.root.get)
  }

  test("shrinking an update also shrinks stale ancestor bounds") {
    val rnd = new Random(10)
    // All-identical leaves: after shrinking one, the root must follow the rest.
    val base = randStats(rnd)
    val es = (0L until 8L).map(u => (u, base))
    val t = tree(es)
    val small = base.copy(pL = base.pL / 2)
    t.update(3L, small)
    assert(math.abs(t.root.get.stats.pL - base.pL) < 1e-12)
    t.leaves.foreach { case (u, _) => if (u != 3L) t.update(u, small) }
    assert(math.abs(t.root.get.stats.pL - small.pL) < 1e-12)
  }

  test("update of an unknown user returns false") {
    assert(!tree(entries(5, 11)).update(999L, randStats(new Random(11))))
  }

  test("insert grows the tree and preserves bounds") {
    val rnd = new Random(12)
    val t = tree(entries(10, 12), fanout = 3)
    (100L until 140L).foreach(u => t.insert(u, randStats(rnd)))
    assert(t.size == 50)
    checkTreeBounds(t.root.get)
  }

  test("insert into an empty tree works") {
    val t = tree(Seq.empty)
    t.insert(1L, randStats(new Random(13)))
    assert(t.size == 1 && t.leafOf(1L).isDefined)
  }

  test("insert rejects duplicate users") {
    val t = tree(entries(3, 14))
    intercept[IllegalArgumentException](t.insert(1L, randStats(new Random(14))))
  }

  test("knn still matches brute force after many inserts and updates") {
    val rnd = new Random(15)
    val t = tree(entries(20, 15), fanout = 3)
    (200L until 230L).foreach(u => t.insert(u, randStats(rnd)))
    (0L until 10L).foreach(u => t.update(u, randStats(rnd)))
    (1 to 20).foreach { _ =>
      val q = randQuery(rnd)
      assert(sameTopK(SignatureTree.topK(Seq(t), q, 7, params, collection), bruteTopK(t, q, 7)))
    }
  }

  test("fanout below 2 is rejected") {
    intercept[IllegalArgumentException](new SignatureTree(0, 0, 1))
  }

  test("scalacheck: merge upper-bounds both operands on arbitrary stats") {
    import org.scalacheck.{Gen, Prop, Test => ScTest}
    val genStats = Gen.choose(1L, 100000L).map(s => randStats(new Random(s)))
    val prop = Prop.forAll(genStats, genStats) { (a, b) =>
      val m = a.merge(b)
      m.pL >= a.pL && m.pL >= b.pL &&
        a.prod.forall { case (k, v) => m.prod.getOrElse(k, 0.0) >= v } &&
        b.ent.forall { case (k, v) => m.ent.getOrElse(k, 0.0) >= v }
    }
    val res = ScTest.check(ScTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }
}
