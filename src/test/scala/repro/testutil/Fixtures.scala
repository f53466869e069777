package repro.testutil

import repro.core._
import repro.hmm.IoHmm
import scala.util.Random

/** Shared generators for index/core tests that need profiles, entry
  * statistics, and queries without running the full training pipeline.
  */
object Fixtures {
  val NCats = 6
  val NProd = 10
  val NEnt = 60
  val NZ = 2

  val collection: CollectionStats = CollectionStats(
    (0L until NProd.toLong).map(p => p -> 1.0 / NProd).toMap,
    (0 until NEnt).map(e => e -> 1.0 / NEnt).toMap,
    NProd.toLong, NEnt.toLong)

  val params: RankParams = RankParams(lambdaS = 0.4, mu = 5.0)

  /** Random but well-formed entry statistics (smoothed probs in (0,1]). */
  def randStats(rnd: Random): EntryStats = {
    val tot = rnd.nextInt(40) + 1
    val inv = 1.0 / (tot + params.mu)
    EntryStats(
      pL = rnd.nextDouble() * 0.9 + 0.05,
      pS = rnd.nextDouble() * 0.9 + 0.05,
      invTot = inv,
      prod = (0 until rnd.nextInt(4) + 1)
        .map(_ => rnd.nextLong(NProd) -> (rnd.nextInt(tot) + params.mu / NProd) * inv).toMap,
      ent = (0 until rnd.nextInt(8) + 1)
        .map(_ => rnd.nextInt(NEnt) -> (rnd.nextInt(tot) + params.mu / NEnt) * inv).toMap,
    )
  }

  /** Random item query over the fixture vocabulary. */
  def randQuery(rnd: Random): ItemQuery = ItemQuery(
    itemId = rnd.nextLong(100000),
    category = rnd.nextInt(NCats),
    producerId = rnd.nextLong(NProd),
    entityWeights = (0 until rnd.nextInt(5) + 1)
      .map(_ => (rnd.nextInt(NEnt), rnd.nextDouble() * 0.9 + 0.1)).distinctBy(_._1))

  /** True when two top-k lists hold the same users in the same order, with
    * scores equal within 1e-9.
    */
  def sameTopK(a: Seq[(Long, Double)], b: Seq[(Long, Double)]): Boolean =
    a.map(_._1) == b.map(_._1) &&
      a.zip(b).forall { case ((_, x), (_, y)) => math.abs(x - y) < 1e-9 }

  /** A random event stream for one user. */
  def randEvents(rnd: Random, n: Int): Seq[CompactEvent] =
    (0 until n).map { _ =>
      CompactEvent(rnd.nextInt(NCats), rnd.nextLong(NProd),
                   Seq.fill(rnd.nextInt(4) + 1)(rnd.nextInt(NEnt)).distinct, rnd.nextInt(NZ))
    }

  /** A profile built from random events with an (untrained) random b-HMM —
    * structurally complete, cheap to create.
    */
  def randProfile(userId: Long, rnd: Random, nEvents: Int = 30, windowCap: Int = 5): UserProfile =
    Profiles.build(userId, randEvents(rnd, nEvents),
                   IoHmm.random(2, NZ, NCats, seed = userId), NCats, windowCap)
}
