package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.index.{CppseIndex, UpdateReport}
import repro.socialdata.{Interaction, Item}

/** End-to-end configuration of the ssRec framework. The defaults are the
  * paper's tuned values: `windowCap = 5` (Fig. 6), `λ_s = 0.4` on
  * YTube-like data (Fig. 7).
  */
final case class SsRecConfig(
    nCategories: Int,
    windowCap: Int = 5,
    lambdaS: Double = 0.4,
    mu: Double = 10.0,
    nAStates: Int = 3,
    nBStates: Int = 3,
    maxBlocks: Int = 10,
    blockThreshold: Double = 0.6,
    expand: Boolean = true,
    hashBuckets: Int = 2048,
    treeFanout: Int = 8,
    longSeqCap: Int = 200,
    hmmIter: Int = 30,
) {
  def params: RankParams = RankParams(lambdaS, mu)
  def bihmm: BiHmmConfig = BiHmmConfig(nCategories, nAStates, nBStates, hmmIter)
}

/** A trained ssRec model: the CPPse-index over all user profiles, the mined
  * entity-expansion table and the a-HMM layer (for decoding producer states
  * of new stream items). `recommend` is exact: it equals `scanRecommend`.
  * `eventsByUser` holds the training events; no model code reads it, and it
  * stays only as a parameter of `SsRec.fromParts`, whose callers pass it.
  */
final class SsRecModel(
    val index: CppseIndex,
    val expansion: EntityExpansion,
    val tracker: ProducerTracker,
    val eventsByUser: Map[Long, Seq[CompactEvent]],
    val cfg: SsRecConfig,
) extends Serializable {

  /** Decoded producer hidden state per item; extended lazily as new items
    * arrive on the stream.
    */
  private val zCache = scala.collection.mutable.Map.empty[Long, Int]

  /** Producer state under which `item` was created: cached for training items,
    * decoded online (a-HMM Viterbi over the producer's trailing categories)
    * for new ones.
    */
  def zOf(item: Item): Int =
    zCache.getOrElseUpdate(item.itemId, tracker.zFor(item.producerId, item.category))

  private[core] def seedZCache(z: Map[Long, Int]): Unit = zCache ++= z

  /** Encode an item as a matching query (with expansion unless disabled —
    * disabling reproduces the ssRec-ne variant).
    */
  def queryOf(item: Item): ItemQuery =
    Ranking.queryOf(item.itemId, item.category, item.producerId, item.entities,
                    expansion, cfg.expand)

  /** Top-k users for an incoming item via the CPPse-index (Algorithm 1). */
  def recommend(item: Item, k: Int): Seq[(Long, Double)] =
    index.topK(queryOf(item), k)

  /** Top-k by sequential scan — the naive method, for tests and baselines. */
  def scanRecommend(item: Item, k: Int): Seq[(Long, Double)] =
    index.scanTopK(queryOf(item), k)

  /** Long-term/short-term score components of every user against an item —
    * lets parameter sweeps recombine with any λ_s without rescoring.
    */
  def componentsAll(item: Item): Array[(Long, Double, Double)] = {
    val q = queryOf(item)
    index.profiles.valuesIterator.map { p =>
      val s = Profiles.entryStats(p, q.category, cfg.mu, index.collection)
      val (rl, rs) = Ranking.components(s, q, index.params, index.collection)
      (p.userId, rl, rs)
    }.toArray
  }

  /** Ingest a batch of observed interactions (Algorithm 2 maintenance): the
    * short-term windows advance, long-term lists absorb flushed windows,
    * BiHMM predictions refresh, and the index trees/hash table are updated.
    * New users get a freshly trained b-HMM over their few events.
    */
  def observe(batch: Seq[Interaction]): UpdateReport = {
    val byUser = batch.groupBy(_.userId).toSeq.sortBy(_._1)
    val updates = byUser.map { case (u, is) =>
      val events = is.sortBy(_.ts).map { i =>
        val z = zCache.getOrElseUpdate(i.itemId, tracker.zFor(i.producerId, i.category))
        CompactEvent(i.category, i.producerId, i.entities, z)
      }
      (u, events: Seq[CompactEvent])
    }
    index.applyUpdates(updates, (userId, events) =>
      BiHmm.trainConsumer(userId, events, cfg.bihmm, cfg.windowCap, cfg.longSeqCap))
  }
}

/** Training pipeline of the ssRec framework (Fig. 1 of the paper):
  * a-HMM layer per producer → b-HMM per consumer → profiles → expansion
  * table → CPPse-index.
  */
object SsRec {

  /** Collection background statistics for Dirichlet smoothing, computed with
    * DataFrame aggregations over the item stream.
    */
  def collectionStats(spark: SparkSession, items: Dataset[Item]): CollectionStats = {
    val df = items.toDF()
    val prodRows = df.groupBy("producerId").agg(count(lit(1)).as("n")).collect()
    val prodTotal = prodRows.map(_.getLong(1)).sum.toDouble
    val entRows = df.select(explode(col("entities")).as("entity"))
      .groupBy("entity").agg(count(lit(1)).as("n")).collect()
    val entTotal = entRows.map(_.getLong(1)).sum.toDouble
    CollectionStats(
      prodRows.map(r => r.getLong(0) -> r.getLong(1) / math.max(1.0, prodTotal)).toMap,
      entRows.map(r => r.getInt(0) -> r.getLong(1) / math.max(1.0, entTotal)).toMap,
      prodRows.length.toLong, entRows.length.toLong)
  }

  /** Train the full model from the item stream and the training slice of the
    * interaction stream.
    */
  def train(spark: SparkSession, items: Dataset[Item],
            interactions: Dataset[Interaction], cfg: SsRecConfig): SsRecModel = {
    val producers = BiHmm.trainProducers(items, cfg.bihmm)
    val zOfItem = producers.valuesIterator.flatMap(_.zOfItem).toMap
    val profiles = BiHmm.trainConsumers(interactions, zOfItem, cfg.bihmm,
                                        cfg.windowCap, cfg.longSeqCap)
    val eventsByUser = collectEvents(interactions, zOfItem)
    val col = collectionStats(spark, items)
    val expansion = if (cfg.expand) Entities.mine(spark, items.toDF()) else Entities.none
    fromParts(profiles, eventsByUser, producers, col, expansion, zOfItem, cfg)
  }

  /** Per-user temporally-ordered training events with decoded producer states. */
  def collectEvents(interactions: Dataset[Interaction],
                    zOfItem: Map[Long, Int]): Map[Long, Seq[CompactEvent]] = {
    interactions.collect().groupBy(_.userId).map { case (u, is) =>
      u -> BiHmm.toEvents(is.toSeq, id => zOfItem.getOrElse(id, 0))
    }
  }

  /** Assemble a model from already-trained parts (used by sweeps that reuse
    * the b-HMMs but change window size / λ_s / expansion).
    */
  def fromParts(profiles: Map[Long, UserProfile], eventsByUser: Map[Long, Seq[CompactEvent]],
                producers: Map[Long, ProducerModel], col: CollectionStats,
                expansion: EntityExpansion, zOfItem: Map[Long, Int],
                cfg: SsRecConfig): SsRecModel = {
    val index = new CppseIndex(cfg.hashBuckets, cfg.treeFanout, cfg.params, col, cfg.nCategories)
      .build(profiles.values, cfg.maxBlocks, cfg.blockThreshold)
    val model = new SsRecModel(index, expansion,
      new ProducerTracker(producers, cfg.nAStates), eventsByUser, cfg)
    model.seedZCache(zOfItem)
    model
  }
}
