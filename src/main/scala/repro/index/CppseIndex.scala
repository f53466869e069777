package repro.index

import repro.core._

/** Reference into the forest: the extended signature tree of one user block
  * under one category.
  */
final case class TreeRef(block: Int, category: Int)

/** One triad `⟨key, sptr, nextptr⟩` of the chained hash table (Section V-A):
  * the category-entity pair's key string, the set of signature trees covering
  * the pair, and the chain pointer for collisions.
  */
final class HashTriad(val key: String,
                      val trees: scala.collection.mutable.Set[TreeRef],
                      var next: HashTriad) extends Serializable

/** Report of one maintenance pass (Algorithm 2) — used by tests and by the
  * Fig-11 update-cost bench.
  */
final case class UpdateReport(updatedUsers: Int, newUsers: Int, newHashTriads: Int)

/** The CPPse-index: extended signature trees, one per (user block ×
  * category), a chained hash table from category-entity pairs to the trees
  * covering them, and the user profile records the LEntries point to.
  *
  * `topK` implements Algorithm 1 (branch-and-bound KNN over every tree of the
  * item's category, equal to a sequential scan); `applyUpdates` implements
  * Algorithm 2, which maintains the trees and the hash table.
  */
final class CppseIndex(val nBuckets: Int,
                       val fanout: Int,
                       val params: RankParams,
                       val collection: CollectionStats,
                       val nCategories: Int) extends Serializable {
  require(nBuckets > 0, "nBuckets must be positive")

  private val buckets = new Array[HashTriad](nBuckets)
  private val trees = scala.collection.mutable.Map.empty[TreeRef, SignatureTree]
  private val blockOfUser = scala.collection.mutable.Map.empty[Long, Int]
  private val centroids = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
  val profiles: scala.collection.mutable.Map[Long, UserProfile] =
    scala.collection.mutable.Map.empty

  /** Number of user blocks. */
  def numBlocks: Int = centroids.size

  /** Block assignment of a user, if indexed. */
  def blockOf(userId: Long): Option[Int] = blockOfUser.get(userId)

  /** All trees of one category, in block order: the candidate set of `topK`. */
  def treesOfCategory(c: Int): Seq[SignatureTree] =
    (0 until numBlocks).flatMap(b => trees.get(TreeRef(b, c)))

  /** Tree of one (block, category), if it exists. */
  def tree(ref: TreeRef): Option[SignatureTree] = trees.get(ref)

  /** Distinct entities covered by a block's signatures (Table II statistic). */
  def blockEntityCount(block: Int): Int =
    profiles.valuesIterator.filter(p => blockOfUser(p.userId) == block)
      .flatMap(_.entities).toSet.size

  /** Distinct producers covered by a block's signatures (Table II statistic). */
  def blockProducerCount(block: Int): Int =
    profiles.valuesIterator.filter(p => blockOfUser(p.userId) == block)
      .flatMap(_.producers).toSet.size

  // ---------------------------------------------------------------- hashing

  /** Look up the triad of a category-entity pair, if present. */
  private def findTriad(c: Int, e: Int): Option[HashTriad] = {
    val key = Hashing.pairKey(c, e)
    var node = buckets(Hashing.shiftAddXor(key, nBuckets))
    while (node != null) {
      if (node.key == key) return Some(node)
      node = node.next
    }
    None
  }

  /** Link a tree under a category-entity pair, creating the triad if needed.
    * @return true if a new triad was inserted (a previously-unseen pair).
    */
  private def link(c: Int, e: Int, ref: TreeRef): Boolean = findTriad(c, e) match {
    case Some(t) => t.trees += ref; false
    case None =>
      val key = Hashing.pairKey(c, e)
      val b = Hashing.shiftAddXor(key, nBuckets)
      buckets(b) = new HashTriad(key, scala.collection.mutable.Set(ref), buckets(b))
      true
  }

  /** Trees linked under the query's category-entity pairs. The hash table
    * does not select candidates for `topK`: a tree's root bound already
    * prunes a tree that holds no top-k user. This lookup reports which trees
    * the table links to a query.
    */
  def locateTrees(q: ItemQuery): Seq[SignatureTree] = {
    val refs = scala.collection.mutable.Set.empty[TreeRef]
    q.entityWeights.foreach { case (e, _) =>
      findTriad(q.category, e).foreach(t => refs ++= t.trees.filter(_.category == q.category))
    }
    refs.iterator.flatMap(trees.get).toSeq
  }

  // ------------------------------------------------------------------ build

  /** Index every profile: block users by one-pass clustering over long-term
    * categorical interest vectors, build one tree per (block, category), and
    * populate the chained hash table from each user's category-entity pairs.
    */
  def build(allProfiles: Iterable[UserProfile], maxBlocks: Int,
            blockThreshold: Double = 0.6): this.type = {
    val ordered = allProfiles.toSeq.sortBy(_.userId)
    val assignment = OnePassClustering.cluster(
      ordered.map(p => (p.userId, p.categoryVector)), maxBlocks, blockThreshold)
    ordered.foreach(p => profiles(p.userId) = p)
    blockOfUser ++= assignment
    // Rebuild running centroids for later new-user assignment.
    centroids.clear()
    val byBlock = ordered.groupBy(p => assignment(p.userId))
    val nBlocks = if (assignment.isEmpty) 0 else assignment.values.max + 1
    (0 until nBlocks).foreach { b =>
      val members = byBlock.getOrElse(b, Seq.empty)
      val dim = members.headOption.map(_.nCategories).getOrElse(nCategories)
      val cen = Array.ofDim[Double](dim)
      members.foreach { p => val v = p.categoryVector; var i = 0; while (i < dim) { cen(i) += v(i); i += 1 } }
      if (members.nonEmpty) { var i = 0; while (i < dim) { cen(i) /= members.size; i += 1 } }
      centroids += cen
    }
    (0 until nBlocks).foreach { b =>
      val members = byBlock.getOrElse(b, Seq.empty)
      (0 until nCategories).foreach { c =>
        val entries = members.map(p => (p.userId, Profiles.entryStats(p, c, params.mu, collection)))
        trees(TreeRef(b, c)) = new SignatureTree(b, c, fanout).build(entries)
      }
    }
    ordered.foreach(p => linkProfilePairs(p, blockOfUser(p.userId)))
    this
  }

  private def linkProfilePairs(p: UserProfile, block: Int): Int = {
    var fresh = 0
    p.entCount.foreach { case (c, em) =>
      em.keysIterator.foreach { e => if (link(c, e, TreeRef(block, c))) fresh += 1 }
    }
    fresh
  }

  // ------------------------------------------------------------------ query

  /** Algorithm 1 over every tree of the item's category: the result equals
    * `scanTopK` in user ids, order and scores (Lemmas 1–2).
    */
  def topK(q: ItemQuery, k: Int): Seq[(Long, Double)] =
    SignatureTree.topK(treesOfCategory(q.category), q, k, params, collection)

  /** Sequential scan over every indexed profile with the same scorer — the
    * naive method of Section V, used as the ground truth for `topK`. Ties
    * rank the lower userId first.
    */
  def scanTopK(q: ItemQuery, k: Int): Seq[(Long, Double)] =
    profiles.valuesIterator
      .map(p => (p.userId, Ranking.score(Profiles.entryStats(p, q.category, params.mu, collection), q, params, collection)))
      .toSeq.sortBy { case (u, s) => (-s, u) }.take(k)

  // ------------------------------------------------------------ maintenance

  /** Algorithm 2: apply a batch of profile updates. Existing users have their
    * events ingested, predictions refreshed, and all their per-category leaf
    * statistics (plus ancestor IEntries) recomputed; unseen category-entity
    * pairs are inserted into the hash table; new users are blocked by best
    * centroid cosine and inserted into every tree of their block.
    *
    * @param makeProfile builds a profile (incl. b-HMM training) for new users.
    */
  def applyUpdates(updates: Seq[(Long, Seq[CompactEvent])],
                   makeProfile: (Long, Seq[CompactEvent]) => UserProfile): UpdateReport = {
    var updated = 0; var created = 0; var freshTriads = 0
    updates.foreach { case (userId, events) =>
      profiles.get(userId) match {
        case Some(old) =>
          val refreshed = Profiles.refreshPredictions(events.foldLeft(old)(Profiles.ingest))
          profiles(userId) = refreshed
          val b = blockOfUser(userId)
          freshTriads += linkProfilePairs(refreshed, b)
          (0 until nCategories).foreach { c =>
            val ok = trees(TreeRef(b, c)).update(
              userId, Profiles.entryStats(refreshed, c, params.mu, collection))
            require(ok, s"user $userId missing from tree ($b,$c)")
          }
          updated += 1
        case None =>
          val p = makeProfile(userId, events)
          profiles(userId) = p
          val v = p.categoryVector
          val b =
            if (centroids.isEmpty) { centroids += v.clone(); 0 }
            else centroids.indices.maxBy(i => OnePassClustering.cosine(centroids(i), v))
          blockOfUser(userId) = b
          (0 until nCategories).foreach { c =>
            val ref = TreeRef(b, c)
            val stats = Profiles.entryStats(p, c, params.mu, collection)
            trees.get(ref) match {
              case Some(t) => t.insert(userId, stats)
              case None => trees(ref) = new SignatureTree(b, c, fanout).build(Seq((userId, stats)))
            }
          }
          freshTriads += linkProfilePairs(p, b)
          created += 1
      }
    }
    UpdateReport(updated, created, freshTriads)
  }
}
