package repro

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.MatchEngine
import repro.graph.DataGraph
import repro.oracle.PatternSql
import repro.pattern.{CanonicalForm, Pattern, PatternCodec}
import repro.plan.Planner

/** Shared verification helpers for Spark tests. */
object Check {

  /** Engine count of `p` in `g`, verified against the DuckDB oracle running
    * the independently-compiled counting SQL over the same edge relation.
    */
  def engineVsOracle(spark: SparkSession, g: DataGraph, p: Pattern): Long = {
    val m = MatchEngine.matches(g, p)
    val cnt = m.agg(count(lit(1)) as "cnt")
    val tables = Seq("g" -> g.adj) ++ g.labels.map("lab" -> _).toSeq
    Oracle.assertEquivalent(cnt, PatternSql.countSql(p), tables: _*)
    m.count()
  }

  /** Label discovery on `p` checked against the oracle: the engine's
    * isomorphisms without symmetry breaking, grouped by discovered labels,
    * equal the oracle's per-labelling counts, and the canonical matches are
    * exactly those divided by the multiplicity. Returns the canonical count.
    */
  def discoveryVsOracle(spark: SparkSession, g: DataGraph, p: Pattern): Long = {
    val plan = Planner.plan(p)
    val free = p.regularVertices.filter(p.getLabel(_).isEmpty)
    val raw = MatchEngine.matchesWithPlan(g, plan, symmetry = false, discoverLabels = true)
    val grouped = raw.groupBy(free.map(v => col(MatchEngine.lcol(v))): _*).agg(count(lit(1)) as "cnt")
    val tables = Seq("g" -> g.adj) ++ g.labels.map("lab" -> _).toSeq
    Oracle.assertEquivalent(grouped, PatternSql.discoverySql(p), tables: _*)
    val canonical = MatchEngine.matchesWithPlan(g, plan, discoverLabels = true).count()
    require(canonical * plan.multiplicity == raw.count(),
      s"$canonical canonical matches × ${plan.multiplicity} ≠ ${raw.count()} isomorphisms of $p")
    canonical
  }

  /** Assert a literal Spark-side value equals the oracle's SQL result. */
  def valueVsOracle(spark: SparkSession, value: Long, sql: String, g: DataGraph): Unit = {
    val df = spark.range(1).select(lit(value) as "cnt")
    val tables = Seq("g" -> g.adj) ++ g.labels.map("lab" -> _).toSeq
    Oracle.assertEquivalent(df, sql, tables: _*)
  }

  /** Canonical key comparable across engine patterns and baseline outputs. */
  def key(p: Pattern): String = PatternCodec.encode(CanonicalForm.canonicalize(p)._1)
}
