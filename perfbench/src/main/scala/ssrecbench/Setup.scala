package ssrecbench

import org.apache.spark.sql.SparkSession
import repro.core.{BiHmm, Entities, Profiles, SsRec, SsRecConfig, SsRecModel}
import repro.eval.Protocol
import repro.exp.{Experiments, Trained}
import repro.socialdata.{SocialConfig, SocialData}

/** Training a model: `Experiments.prepare` then `Experiments.buildModel`.
  * Traced, the same steps run one by one in the same order, each under a
  * `setup.*` span with a child span named after the layer it calls.
  */
object Setup {

  final case class Result(trained: Trained, model: SsRecModel, seconds: Double)

  def run(spark: SparkSession, cfg: SocialConfig, ss: SsRecConfig, tr: Tracer): Result = {
    val t0 = System.nanoTime()
    val trained = if (tr.enabled) prepareTraced(spark, cfg, ss, tr) else Experiments.prepare(spark, cfg, ss)
    val model = if (tr.enabled) buildTraced(trained, ss, tr) else Experiments.buildModel(trained, ss)
    Result(trained, model, (System.nanoTime() - t0) / 1e9)
  }

  private def prepareTraced(spark: SparkSession, cfg: SocialConfig, ss: SsRecConfig,
                            tr: Tracer): Trained = {
    val (items, partitions) = tr.span("setup.generate") {
      val items = tr.span("socialdata.items")(SocialData.items(spark, cfg).cache())
      val interactions = tr.span("socialdata.interactions")(SocialData.interactions(spark, cfg).collect())
      (items, tr.span("eval.split")(Protocol.split(interactions.toSeq, 6)))
    }
    val (producers, zOfItem) = tr.span("setup.a_hmm") {
      val producers = tr.span("hmm.train_producers")(BiHmm.trainProducers(items, ss.bihmm))
      (producers, producers.valuesIterator.flatMap(_.zOfItem).toMap)
    }
    import spark.implicits._
    val trainDs = spark.createDataset((partitions(0) ++ partitions(1)).toSeq)
    val profiles = tr.span("setup.b_hmm")(tr.span("hmm.train_consumers")(
      BiHmm.trainConsumers(trainDs, zOfItem, ss.bihmm, ss.windowCap, ss.longSeqCap)))
    val eventsByUser = tr.span("setup.events")(tr.span("core.collect_events")(
      SsRec.collectEvents(trainDs, zOfItem)))
    val col = tr.span("setup.col_stats")(tr.span("core.collection_stats")(
      SsRec.collectionStats(spark, items)))
    val expansion = tr.span("setup.expansion")(tr.span("core.entities_mine")(
      Entities.mine(spark, items.toDF())))
    items.unpersist()
    Trained(partitions, producers, zOfItem, profiles.map { case (u, p) => u -> p.model },
            eventsByUser, col, expansion)
  }

  private def buildTraced(t: Trained, ss: SsRecConfig, tr: Tracer): SsRecModel = {
    val profiles = tr.span("setup.profiles")(tr.span("core.profiles_build")(
      t.eventsByUser.map { case (u, ev) =>
        u -> Profiles.build(u, ev, t.userModels(u), ss.nCategories, ss.windowCap, ss.longSeqCap)
      }))
    tr.span("setup.index_build")(tr.span("index.build")(
      SsRec.fromParts(profiles, t.eventsByUser, t.producers, t.col,
                      if (ss.expand) t.expansion else Entities.none, t.zOfItem, ss)))
  }

  /** Span names of the set-up stages, in call order. */
  val stages: Seq[String] = Seq("generate", "a_hmm", "b_hmm", "events", "col_stats",
                                "expansion", "profiles", "index_build")
}
