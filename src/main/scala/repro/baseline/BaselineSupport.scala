package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.pattern.{Automorphism, Pattern, PatternCodec}

/** MNI support aggregation for baseline FSM implementations.
  *
  * Input: one row per explored embedding, with the canonical labeled
  * pattern key (produced by the baseline's per-embedding isomorphism
  * computation) and the canonically-ordered data-vertex assignment.
  * Support = min over automorphism-orbit-merged per-position domains, the
  * definition the engine's MniSupport applies to its on-the-fly domains —
  * the baselines differ in how (and how expensively) the embeddings and
  * keys are produced and aggregated, not in the definition of support.
  */
object BaselineSupport {

  def supports(spark: SparkSession, keyed: DataFrame): Seq[(Pattern, Long)] = {
    val cached = keyed.cache()
    try {
      val keys = cached.select("key").distinct().collect().map(_.getString(0)).toSeq
      if (keys.isEmpty) return Seq.empty
      val keyInfo: Map[String, (Pattern, Seq[Int])] = keys.map { key =>
        val p = PatternCodec.decode(key)
        val reg = p.regularVertices
        val orbits = Automorphism.orbitsOf(reg, Automorphism.all(p))
        val orbitOf = reg.indices.map(j => orbits.indexWhere(_.contains(reg(j))))
        key -> (p, orbitOf)
      }.toMap
      val orbitMaps = keyInfo.map { case (k, (_, o)) => (k, o) }
      val orbitUdf = udf((key: String, pos: Int) => orbitMaps(key)(pos))
      cached
        .select(col("key"), posexplode(col("vs")) as Seq("pos", "v"))
        .withColumn("orbit", orbitUdf(col("key"), col("pos")))
        .groupBy("key", "orbit")
        .agg(countDistinct("v") as "c")
        .groupBy("key")
        .agg(min("c") as "support")
        .collect()
        .map(r => (keyInfo(r.getString(0))._1, r.getLong(1)))
        .toSeq
    } finally cached.unpersist()
  }
}
