package repro.index

import repro.core.{CollectionStats, EntryStats, ItemQuery, RankParams, Ranking}
import scala.collection.mutable.{ArrayBuffer, PriorityQueue}

/** A node of the extended signature tree. `stats` is the node's signature:
  * the user's own statistics at a leaf (LEntry), the element-wise max over
  * all children at an internal node (IEntry) — the "virtual user whose
  * interests cover all of its children" of Section V-A.
  */
sealed abstract class SigNode extends Serializable {
  var stats: EntryStats = _
  var parent: SigInner = _
}

/** LEntry: one user's per-category profile statistics. */
final class SigLeaf(val userId: Long) extends SigNode

/** IEntry: upper-bound summary of a subtree. */
final class SigInner extends SigNode {
  val children: ArrayBuffer[SigNode] = ArrayBuffer.empty
}

/** Extended signature tree over the users of one (block, category) pair.
  * Supports bulk build, exact-upper-bound maintenance on leaf updates, and
  * leaf insertion with node splits (the 20%-reserve trick of Section V-C is
  * subsumed by growing the sparse maps directly).
  */
final class SignatureTree(val block: Int, val category: Int, val fanout: Int)
    extends Serializable {
  require(fanout >= 2, "fanout must be >= 2")

  private var rootNode: SigNode = _
  private val leavesById = scala.collection.mutable.Map.empty[Long, SigLeaf]

  /** Root entry, or None for an empty tree. */
  def root: Option[SigNode] = Option(rootNode)

  /** Number of user profiles (LEntries) in the tree. */
  def size: Int = leavesById.size

  /** The leaf of a user, if present. */
  def leafOf(userId: Long): Option[SigLeaf] = leavesById.get(userId)

  private def recomputeStats(n: SigInner): Unit =
    n.stats = n.children.map(_.stats).reduce(_ merge _)

  private def recomputeUp(n: SigInner): Unit = {
    var cur = n
    while (cur != null) { recomputeStats(cur); cur = cur.parent }
  }

  /** Bulk-load the tree bottom-up: leaves are packed `fanout` at a time into
    * internal nodes level by level until a single root remains.
    */
  def build(entries: Seq[(Long, EntryStats)]): this.type = {
    leavesById.clear()
    if (entries.isEmpty) { rootNode = null; return this }
    var level: Seq[SigNode] = entries.map { case (u, s) =>
      val l = new SigLeaf(u); l.stats = s; leavesById(u) = l; l
    }
    while (level.size > 1) {
      level = level.grouped(fanout).map { grp =>
        val inner = new SigInner
        grp.foreach { ch => ch.parent = inner; inner.children += ch }
        recomputeStats(inner)
        inner
      }.toSeq
    }
    rootNode = level.head
    rootNode.parent = null
    this
  }

  /** Replace a user's leaf statistics and recompute every ancestor IEntry
    * exactly (a recompute, not a max-merge: updated components may shrink).
    * @return false if the user is not in this tree.
    */
  def update(userId: Long, stats: EntryStats): Boolean = leavesById.get(userId) match {
    case None => false
    case Some(leaf) =>
      leaf.stats = stats
      if (leaf.parent != null) recomputeUp(leaf.parent)
      true
  }

  /** Insert a new user: descend into the smallest subtree, attach the leaf at
    * the deepest internal level, split overflowing nodes upward (a root split
    * grows the tree by one level).
    */
  def insert(userId: Long, stats: EntryStats): Unit = {
    require(!leavesById.contains(userId), s"user $userId already present")
    val leaf = new SigLeaf(userId)
    leaf.stats = stats
    leavesById(userId) = leaf
    rootNode match {
      case null => rootNode = leaf
      case l: SigLeaf =>
        val inner = new SigInner
        inner.children += l; l.parent = inner
        inner.children += leaf; leaf.parent = inner
        recomputeStats(inner)
        rootNode = inner
      case r: SigInner =>
        var cur = r
        while (cur.children.head.isInstanceOf[SigInner])
          cur = cur.children.minBy(c => subtreeSize(c)).asInstanceOf[SigInner]
        cur.children += leaf
        leaf.parent = cur
        var node = cur
        while (node != null && node.children.size > fanout) {
          val right = new SigInner
          val moved = node.children.takeRight(node.children.size / 2)
          node.children.remove(node.children.size - moved.size, moved.size)
          moved.foreach { m => m.parent = right; right.children += m }
          recomputeStats(right)
          recomputeStats(node)
          if (node.parent == null) {
            val newRoot = new SigInner
            newRoot.children += node; node.parent = newRoot
            newRoot.children += right; right.parent = newRoot
            recomputeStats(newRoot)
            rootNode = newRoot
            node = null
          } else {
            val p = node.parent
            p.children += right
            right.parent = p
            node = p
          }
        }
        if (node != null) recomputeUp(node) else recomputeUp(rootNode.asInstanceOf[SigInner])
    }
  }

  private def subtreeSize(n: SigNode): Int = n match {
    case _: SigLeaf => 1
    case i: SigInner => i.children.iterator.map(subtreeSize).sum
  }

  /** All (userId, stats) leaves — for exhaustive checks in tests. */
  def leaves: Seq[(Long, EntryStats)] =
    leavesById.iterator.map { case (u, l) => (u, l.stats) }.toSeq
}

object SignatureTree {

  /** Result-heap order: the head is the worst kept entry, i.e. the lowest
    * score and, among equal scores, the highest userId.
    */
  private val worstFirst: Ordering[(Double, Long)] = (a, b) => {
    val c = java.lang.Double.compare(b._1, a._1)
    if (c != 0) c else java.lang.Long.compare(a._2, b._2)
  }

  /** Algorithm 1: best-first branch-and-bound top-k over the given trees.
    * Every root enters one priority queue by its IEntry score, an upper bound
    * on its subtree (Lemmas 1–2); an entry is expanded unless its bound is
    * strictly below `LB`, the k-th best score found so far, and leaves fill a
    * size-k result heap. Ties keep the lower userId, so a bound equal to `LB`
    * is still searched. The result is ordered by score, then by ascending
    * userId — the order of a sequential scan over the same users.
    */
  def topK(trees: Iterable[SignatureTree], q: ItemQuery, k: Int, params: RankParams,
           collection: CollectionStats): Seq[(Long, Double)] = {
    require(k >= 1, "k must be >= 1")
    def score(n: SigNode): Double = Ranking.score(n.stats, q, params, collection)
    val queue = PriorityQueue.empty[(Double, SigNode)](Ordering.by[(Double, SigNode), Double](_._1))
    trees.foreach(_.root.foreach(r => queue.enqueue((score(r), r))))
    val result = PriorityQueue.empty[(Double, Long)](worstFirst)
    def lb: Double = if (result.size < k) Double.NegativeInfinity else result.head._1
    while (queue.nonEmpty && queue.head._1 >= lb) {
      queue.dequeue() match {
        case (s, leaf: SigLeaf) =>
          result.enqueue((s, leaf.userId))
          if (result.size > k) result.dequeue()
        case (_, inner: SigInner) =>
          inner.children.foreach { ch =>
            val s = score(ch)
            if (s >= lb) queue.enqueue((s, ch))
          }
      }
    }
    result.dequeueAll[(Double, Long)].reverseIterator.map { case (s, u) => (u, s) }.toSeq
  }
}
