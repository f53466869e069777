package repro.exp

import org.apache.spark.sql.{Dataset, Encoders, SparkSession}
import repro.baselines.{Ctt, Ucd}
import repro.core._
import repro.eval.Protocol
import repro.eval.Protocol.StreamRecommender
import repro.hmm.Hmm
import repro.socialdata.{Interaction, Item, SocialConfig, SocialData}

/** Everything trained once per dataset that parameter sweeps can reuse:
  * partitions, the a-HMM layer, per-user b-HMMs, training events, collection
  * stats, and the mined expansion table.
  */
final case class Trained(
    partitions: IndexedSeq[Array[Interaction]],
    producers: Map[Long, ProducerModel],
    zOfItem: Map[Long, Int],
    userModels: Map[Long, repro.hmm.IoHmm],
    eventsByUser: Map[Long, Seq[CompactEvent]],
    col: CollectionStats,
    expansion: EntityExpansion,
)

/** Harnesses reproducing each table/figure of the evaluation section. Each
  * returns plain rows (printed by the jobs and asserted on by the benches);
  * see EXPERIMENTS.md for the paper-vs-measured record.
  */
object Experiments {

  /** ssRec defaults for a dataset (paper's tuned values). */
  def defaultSs(cfg: SocialConfig): SsRecConfig =
    SsRecConfig(nCategories = cfg.nCategories)

  /** Reduced-scale dataset for the quality sweeps (Figs. 6–9) so the
    * sequential-scan baselines stay tractable on one machine.
    */
  val benchQuality: SocialConfig = SocialConfig(
    name = "YTube-lite-q", nProducers = 40, nConsumers = 500, nCategories = 19,
    nEntities = 1900, nItems = 4000, avgHistory = 50, seed = 42L)

  /** Fig-5 dataset: consumers planted with 1–8 hidden states (the grouping
    * axis), longer histories so per-state-count tuning has a usable
    * validation slice, and a strong producer-driven share.
    */
  val benchFig5: SocialConfig = SocialConfig(
    name = "YTube-lite-f5", nProducers = 40, nConsumers = 300, nCategories = 19,
    nEntities = 1900, nItems = 4000, avgHistory = 160,
    plantedStatesMod8 = true, producerMix = 0.6, seed = 42L)

  /** Train everything reusable once per dataset. */
  def prepare(spark: SparkSession, cfg: SocialConfig, ss: SsRecConfig): Trained = {
    val items = SocialData.items(spark, cfg).cache()
    val interactions = SocialData.interactions(spark, cfg).collect()
    val partitions = Protocol.split(interactions.toSeq, 6)
    val producers = BiHmm.trainProducers(items, ss.bihmm)
    val zOfItem = producers.valuesIterator.flatMap(_.zOfItem).toMap
    import spark.implicits._
    val trainDs = spark.createDataset((partitions(0) ++ partitions(1)).toSeq)
    val profiles = BiHmm.trainConsumers(trainDs, zOfItem, ss.bihmm, ss.windowCap, ss.longSeqCap)
    val eventsByUser = SsRec.collectEvents(trainDs, zOfItem)
    val col = SsRec.collectionStats(spark, items)
    val expansion = Entities.mine(spark, items.toDF())
    items.unpersist()
    Trained(partitions, producers, zOfItem, profiles.map { case (u, p) => u -> p.model },
            eventsByUser, col, expansion)
  }

  /** Build a fresh model at the given settings from the prepared parts
    * (profiles replayed under the requested window size; no re-training).
    */
  def buildModel(t: Trained, ss: SsRecConfig): SsRecModel = {
    val profiles = t.eventsByUser.map { case (u, ev) =>
      u -> Profiles.build(u, ev, t.userModels(u), ss.nCategories, ss.windowCap, ss.longSeqCap)
    }
    SsRec.fromParts(profiles, t.eventsByUser, t.producers, t.col,
                    if (ss.expand) t.expansion else Entities.none, t.zOfItem, ss)
  }

  /** Protocol adapter for ssRec and its variants. */
  final class SsRecAdapter(val model: SsRecModel, val name: String,
                           update: Boolean = true)
      extends StreamRecommender {
    override def recommend(item: Item, k: Int): Seq[Long] =
      model.recommend(item, k).map(_._1)
    override def observe(batch: Seq[Interaction]): Unit =
      if (update) { model.observe(batch); () }
  }

  /** Protocol adapter for CTT. */
  final class CttAdapter(ctt: Ctt) extends StreamRecommender {
    override def name: String = "CTT"
    override def recommend(item: Item, k: Int): Seq[Long] = ctt.recommend(item, k).map(_._1)
    override def observe(batch: Seq[Interaction]): Unit = ctt.observe(batch)
  }

  /** Protocol adapter for UCD. */
  final class UcdAdapter(ucd: Ucd) extends StreamRecommender {
    override def name: String = "UCD"
    override def recommend(item: Item, k: Int): Seq[Long] = ucd.recommend(item, k).map(_._1)
    override def observe(batch: Seq[Interaction]): Unit = ucd.observe(batch)
  }

  // ----------------------------------------------------------------- Table II

  final case class Table2Row(blockNum: Int, actualBlocks: Int, maxEntityNum: Int, maxProducerNum: Int)

  /** Table II: max entity/producer count covered by one block's signatures as
    * the block budget grows. A high split threshold forces the one-pass
    * clustering to use the whole budget, like the paper's controlled sweep.
    */
  def table2(spark: SparkSession, cfg: SocialConfig, ss: SsRecConfig,
             blockNums: Seq[Int] = Seq(1, 10, 20, 30, 40, 50)): Seq[Table2Row] = {
    val t = prepare(spark, cfg, ss)
    blockNums.map { bn =>
      val m = buildModel(t, ss.copy(maxBlocks = bn, blockThreshold = 0.95))
      val idx = m.index
      val blocks = 0 until idx.numBlocks
      Table2Row(bn, idx.numBlocks,
        blocks.map(idx.blockEntityCount).max,
        blocks.map(idx.blockProducerCount).max)
    }
  }

  // ---------------------------------------------------------------- Table III

  final case class Table3Row(dataset: String, nProducers: Long, nConsumers: Long,
                             nEntities: Long, nCategories: Long, nInteractions: Long, nItems: Long)

  /** Table III: the dataset overview, computed over the generated streams. */
  def table3(spark: SparkSession,
             configs: Seq[SocialConfig] = SocialData.allConfigs): Seq[Table3Row] =
    configs.map { c =>
      val (name, p, u, e, cat, ir, v) = SocialData.overview(spark, c)
      Table3Row(name, p, u, e, cat, ir, v)
    }

  // ------------------------------------------------------------------- Fig 5

  final case class Fig5UserRow(userId: Long, group: Int, accHmm: Double, accBiHmm: Double)
  final case class Fig5Row(group: Int, users: Long, accHmm: Double, accBiHmm: Double)

  /** Fig. 5: next-category prediction accuracy of BiHMM vs plain HMM, users
    * grouped by their tuned optimal hidden-state count (1–8). Per user: 80/20
    * temporal split; HMM state count tuned on test accuracy as in the paper;
    * BiHMM trained at the same count.
    */
  def fig5(spark: SparkSession, cfg: SocialConfig, ss0: SsRecConfig,
           maxStates: Int = 8): Seq[Fig5Row] = {
    val ss = ss0
    val items = SocialData.items(spark, cfg).cache()
    val producers = BiHmm.trainProducers(items, ss.bihmm)
    val zOfItem = producers.valuesIterator.flatMap(_.zOfItem).toMap
    val interactions = SocialData.interactions(spark, cfg)
    val nCats = cfg.nCategories
    val nA = ss.nAStates
    val maxIter = ss.hmmIter
    implicit val enc = Encoders.product[Fig5UserRow]
    val perUser = interactions.groupByKey(_.userId)(Encoders.scalaLong).mapGroups { (u, it) =>
      val hist = it.toArray.sortBy(_.ts)
      val cats = hist.map(_.category).toIndexedSeq
      val zs = hist.map(h => zOfItem.getOrElse(h.itemId, 0)).toIndexedSeq
      val splitAt = math.max(1, (cats.length * 0.8).toInt)
      // State-count tuning uses a validation slice of the *training* prefix
      // (the last quarter), so neither model selects on the held-out 20%.
      val valAt = math.max(1, (splitAt * 0.75).toInt)
      def hmmAccOn(n: Int, trainTo: Int, from: Int, to: Int): Double = {
        val m = Hmm.train(cats.take(trainTo), n, nCats, maxIter, seed = 7 + u)
        val hits = (from until to).count(t => m.predictNext(cats.take(t)) == cats(t))
        hits.toDouble / math.max(1, to - from)
      }
      val (bestN, _) = (1 to maxStates)
        .map(n => n -> hmmAccOn(n, valAt, valAt, splitAt))
        .maxBy { case (n, a) => (a, -n) }
      val accHmm = hmmAccOn(bestN, splitAt, splitAt, cats.length)
      val pairs = zs.zip(cats)
      // Same seed as the tuned HMM: the b-HMM's base layer is then exactly the
      // selected single-layer model, isolating the producer-layer contribution.
      val bi = repro.hmm.IoHmm.train(pairs.take(splitAt), bestN, nA, nCats, maxIter, seed = 7 + u)
      val biHits = (splitAt until cats.length).count { t =>
        val prefix = pairs.take(t)
        // Forecast the next producer state from the learned z-dynamics.
        bi.predictNext(prefix, repro.hmm.IoHmm.zForecast(prefix, nA)) == cats(t)
      }
      Fig5UserRow(u, bestN, accHmm, biHits.toDouble / math.max(1, cats.length - splitAt))
    }.collect()
    items.unpersist()
    perUser.groupBy(_.group).toSeq.sortBy(_._1).map { case (g, rows) =>
      Fig5Row(g, rows.length,
        rows.map(_.accHmm).sum / rows.length,
        rows.map(_.accBiHmm).sum / rows.length)
    }
  }

  // ---------------------------------------------------------- Figs 6/7 sweeps

  /** One protocol pass computing P@k for every λ_s simultaneously from the
    * cached (R_ℓ, R_s) components — profile updates do not depend on λ_s, so
    * a single pass serves the whole sweep.
    */
  def sweepLambda(model: SsRecModel, partitions: IndexedSeq[Array[Interaction]],
                  lambdas: Seq[Double], ks: Seq[Int], trainParts: Int = 2,
                  update: Boolean = true): Map[Double, Map[Int, Double]] = {
    val kMax = ks.max
    val accs = lambdas.map(l => l -> Protocol.PrecisionAtK(ks)).toMap
    val seen = scala.collection.mutable.Set.empty[Long]
    val buffer = scala.collection.mutable.ArrayBuffer.empty[Interaction]
    def flush(): Unit = if (update && buffer.nonEmpty) { model.observe(buffer.toSeq); buffer.clear() }
    (trainParts until partitions.length).foreach { pi =>
      val part = partitions(pi)
      val truth = Protocol.truthOf(part)
      part.sortBy(_.ts).foreach { e =>
        if (seen.add(e.itemId)) {
          flush()
          val v = repro.socialdata.Item(e.itemId, e.ts, e.category, e.producerId,
                                        e.entities, zPlanted = -1)
          val comps = model.componentsAll(v)
          val t = truth.getOrElse(e.itemId, Set.empty)
          lambdas.foreach { l =>
            val heap = scala.collection.mutable.PriorityQueue.empty[(Double, Long)](
              Ordering.by[(Double, Long), Double](-_._1))
            comps.foreach { case (u, rl, rs) =>
              val s = Ranking.combine(rl, rs, l)
              if (heap.size < kMax) heap.enqueue((s, u))
              else if (s > heap.head._1) { heap.dequeue(); heap.enqueue((s, u)) }
            }
            val drained: Seq[(Double, Long)] = heap.dequeueAll
            accs(l).record(drained.reverse.map(_._2), t)
          }
        }
        buffer += e
      }
      flush()
    }
    accs.map { case (l, a) => l -> a.values }
  }

  final case class Fig6Row(window: Int, bestLambda: Double, pAtK: Double)

  /** Fig. 6: P@k vs short-term window size, reporting the best λ_s per |W|. */
  def fig6(t: Trained, ss: SsRecConfig, windows: Seq[Int] = 1 to 10,
           lambdas: Seq[Double] = (1 to 10).map(_ / 10.0), k: Int = 10): Seq[Fig6Row] =
    windows.map { w =>
      val m = buildModel(t, ss.copy(windowCap = w))
      val byLambda = sweepLambda(m, t.partitions, lambdas, Seq(k))
      val (bestL, best) = byLambda.map { case (l, v) => l -> v(k) }.maxBy { case (l, p) => (p, -l) }
      Fig6Row(w, bestL, best)
    }

  final case class Fig7Row(lambda: Double, pAtK: Double)

  /** Fig. 7: P@k vs λ_s at the optimal window size. */
  def fig7(t: Trained, ss: SsRecConfig, window: Int = 5,
           lambdas: Seq[Double] = (1 to 10).map(_ / 10.0), k: Int = 10): Seq[Fig7Row] = {
    val m = buildModel(t, ss.copy(windowCap = window))
    val byLambda = sweepLambda(m, t.partitions, lambdas, Seq(k))
    lambdas.map(l => Fig7Row(l, byLambda(l)(k)))
  }

  // ------------------------------------------------------------------- Fig 8

  final case class MethodPAtK(method: String, pAtK: Map[Int, Double])

  /** Fig. 8: P@k of ssRec vs ssRec-ne (no expansion) vs CTT vs UCD. */
  def fig8(t: Trained, ss: SsRecConfig, cfg: SocialConfig,
           ks: Seq[Int] = Seq(5, 10, 20, 30)): Seq[MethodPAtK] = {
    val trainBatch = (t.partitions(0) ++ t.partitions(1)).toSeq
    val runs = Seq[() => (String, Map[Int, Double])](
      () => {
        val a = new SsRecAdapter(buildModel(t, ss), "ssRec")
        ("ssRec", Protocol.evaluate(t.partitions, a, ks))
      },
      () => {
        val a = new SsRecAdapter(buildModel(t, ss.copy(expand = false)), "ssRec-ne")
        ("ssRec-ne", Protocol.evaluate(t.partitions, a, ks))
      },
      () => {
        val a = new CttAdapter(new Ctt(cfg.nCategories).train(trainBatch))
        ("CTT", Protocol.evaluate(t.partitions, a, ks))
      },
      () => {
        val a = new UcdAdapter(new Ucd(cfg.nCategories).train(trainBatch))
        ("UCD", Protocol.evaluate(t.partitions, a, ks))
      },
    )
    runs.map { r => val (n, v) = r(); MethodPAtK(n, v) }
  }

  // ------------------------------------------------------------------- Fig 9

  /** Fig. 9: ssRec with stream profile updates vs ssRec-nu without. */
  def fig9(t: Trained, ss: SsRecConfig, ks: Seq[Int] = Seq(5, 10, 20, 30)): Seq[MethodPAtK] = Seq(
    MethodPAtK("ssRec",
      Protocol.evaluate(t.partitions,
        new SsRecAdapter(buildModel(t, ss), "ssRec"), ks)),
    MethodPAtK("ssRec-nu",
      Protocol.evaluate(t.partitions,
        new SsRecAdapter(buildModel(t, ss), "ssRec-nu", update = false), ks)),
  )

  // ------------------------------------------------------------------ Fig 10

  final case class Fig10Row(partitionsUsed: Int, ssRecMsPerItem: Double,
                            cttMsPerItem: Double, ucdMsPerItem: Double)

  /** Fig. 10: average response time per stream item (k = 30) as test
    * partitions accumulate. ssRec answers through the CPPse-index; CTT and
    * UCD scan all users sequentially. Timing is measured on a deterministic
    * sample of each partition's items; updates are applied in full so the
    * data size really grows. An untimed warm-up pass of every method over a
    * slice of the first sample compiles their paths before any timing, so
    * the method timed first is not the one that pays for the JIT.
    */
  def fig10(t: Trained, ss: SsRecConfig, cfg: SocialConfig,
            k: Int = 30, sampleCap: Int = 300): Seq[Fig10Row] = {
    val m = buildModel(t, ss)
    val ssA = new SsRecAdapter(m, "ssRec")
    val trainBatch = (t.partitions(0) ++ t.partitions(1)).toSeq
    val ctt = new Ctt(cfg.nCategories).train(trainBatch)
    val ucd = new Ucd(cfg.nCategories).train(trainBatch)

    def timeMs(items: Seq[Item])(f: Item => Unit): Double = {
      val t0 = System.nanoTime()
      items.foreach(f)
      (System.nanoTime() - t0) / 1e6 / math.max(1, items.size)
    }

    def sampleOf(part: Array[Interaction]): Seq[Item] = {
      val stream = Protocol.itemStream(part)
      val step = math.max(1, stream.length / sampleCap)
      stream.indices.by(step).map(stream).toSeq
    }

    sampleOf(t.partitions(2)).take(math.max(1, sampleCap / 10)).foreach { v =>
      ssA.recommend(v, k); ctt.recommend(v, k); ucd.recommend(v, k)
    }
    (2 until t.partitions.length).map { pi =>
      val part = t.partitions(pi)
      val sample = sampleOf(part)
      val ssMs = timeMs(sample)(v => { ssA.recommend(v, k); () })
      val cttMs = timeMs(sample)(v => { ctt.recommend(v, k); () })
      val ucdMs = timeMs(sample)(v => { ucd.recommend(v, k); () })
      if (pi < t.partitions.length - 1) {
        ssA.observe(part.toSeq); ctt.observe(part.toSeq); ucd.observe(part.toSeq)
      }
      Fig10Row(pi - 1, ssMs, cttMs, ucdMs)
    }
  }

  // ------------------------------------------------------------------ Fig 11

  final case class Fig11Row(updateSize: Int, millis: Double)

  /** Fig. 11: CPPse-index maintenance cost (Algorithm 2) vs update batch size.
    * Each size runs on a fresh model; an untimed warmup batch absorbs JIT
    * compilation so the sweep measures the index, not the JVM.
    */
  def fig11(t: Trained, ss: SsRecConfig,
            sizes: Seq[Int] = Seq(500, 1000, 2000, 4000, 8000)): Seq[Fig11Row] = {
    val all = (2 until t.partitions.length).flatMap(t.partitions(_)).toArray
    val warmup = all.take(300).toSeq
    val updates = all.drop(300)
    sizes.map { n =>
      val m = buildModel(t, ss)
      m.observe(warmup)
      val batch = updates.take(math.min(n, updates.length)).toSeq
      val t0 = System.nanoTime()
      m.observe(batch)
      Fig11Row(batch.size, (System.nanoTime() - t0) / 1e6)
    }
  }

  // --------------------------------------------------------------- rendering

  /** Fixed-width table rendering for job output and EXPERIMENTS.md. */
  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title ==", line(headers), sep) ++ rows.map(line)).mkString("\n")
  }
}
