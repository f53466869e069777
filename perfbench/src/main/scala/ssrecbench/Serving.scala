package ssrecbench

import repro.core.{CompactEvent, Profiles, Ranking, SsRecModel}
import repro.index.{TreeRef, UpdateReport}
import repro.socialdata.{Interaction, Item}

/** The two public serving calls of a model, `recommend` and `observe`, as
  * the workloads issue them. Untraced, each is exactly one call into
  * `SsRecModel`. Traced, each call is split into its layers from outside:
  *
  *  - `recommend(item, k)` is `index.topK(queryOf(item), k)`, so the two
  *    parts are timed as they run; candidate location, the category's tree
  *    list and `Ranking.score` on roots and leaves are timed afterwards on
  *    the same query, outside the operation's span;
  *  - after each `observe`, its parts are replayed without side effects:
  *    `Profiles.ingest` + `refreshPredictions` on the pre-call profile,
  *    `Profiles.entryStats` for every category, and `SignatureTree.update`
  *    with each leaf's current statistics, which leaves the tree unchanged.
  */
final class Serving(val model: SsRecModel, tr: Tracer, k: Int) {
  private val index = model.index
  private val nCategories = model.cfg.nCategories
  private var batches = 0L

  def recommend(item: Item): Seq[(Long, Double)] =
    if (!tr.enabled) model.recommend(item, k)
    else {
      tr.op(item.itemId)
      val (q, res) = tr.span("op.recommend") {
        val q = tr.span("core.encode")(model.queryOf(item))
        (q, tr.span("index.topk")(index.topK(q, k)))
      }
      tr.count("core.query_entities", q.entityWeights.size)
      val located = tr.span("index.locate")(index.locateTrees(q))
      tr.count("index.trees_located", located.size)
      val ofCategory = tr.span("index.trees_category")(index.treesOfCategory(q.category))
      tr.count("index.trees_category", ofCategory.size)
      located.foreach(_.root.foreach { r =>
        tr.span("core.score_root")(Ranking.score(r.stats, q, index.params, index.collection))
      })
      for ((u, _) <- res; b <- index.blockOf(u); t <- index.tree(TreeRef(b, q.category));
           leaf <- t.leafOf(u))
        tr.span("core.score_leaf")(Ranking.score(leaf.stats, q, index.params, index.collection))
      res
    }

  /** The sequential scan the index must agree with. */
  def scan(item: Item): Seq[(Long, Double)] = {
    tr.op(item.itemId)
    val q = model.queryOf(item)
    tr.span("index.scan")(index.scanTopK(q, k))
  }

  def observe(batch: Seq[Interaction]): UpdateReport =
    if (!tr.enabled) model.observe(batch)
    else {
      batches += 1
      tr.op(-batches)
      val byUser = batch.groupBy(_.userId)
      val before = byUser.keysIterator.flatMap(u => index.profiles.get(u).map(u -> _)).toMap
      val report = tr.span("core.observe")(model.observe(batch))
      tr.count("update.users_per_call", report.updatedUsers + report.newUsers)
      tr.count("update.new_triads", report.newHashTriads)
      byUser.foreach { case (u, is) => before.get(u).foreach(old => replayUpdate(u, is, old)) }
      report
    }

  private def replayUpdate(u: Long, is: Seq[Interaction],
                           old: repro.core.UserProfile): Unit = {
    // `observe` has filled the z cache for every item of the batch, so
    // `zOf` only reads it here.
    val events = is.sortBy(_.ts).map(i => CompactEvent(i.category, i.producerId, i.entities,
      model.zOf(Item(i.itemId, i.ts, i.category, i.producerId, i.entities, zPlanted = -1))))
    val refreshed = tr.span("core.ingest_refresh")(
      Profiles.refreshPredictions(events.foldLeft(old)(Profiles.ingest)))
    tr.span("core.entry_stats")((0 until nCategories).foreach(c =>
      Profiles.entryStats(refreshed, c, index.params.mu, index.collection)))
    tr.span("index.leaf_update")(index.blockOf(u).foreach { b =>
      (0 until nCategories).foreach { c =>
        index.tree(TreeRef(b, c)).foreach(t => t.leafOf(u).foreach(l => t.update(u, l.stats)))
      }
    })
  }
}
