package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import repro.SynthData
import repro.apps.{CliqueCount, Fsm}
import repro.core.Existence
import repro.graph.DataGraph
import repro.pattern.{CanonicalForm, Pattern, Patterns}
import repro.plan.Planner

/** A generated input graph: the edge list and optional vertex labels, both
  * in original ids, as the generators produced them.
  */
final case class Input(edges: Array[(Long, Long)], labels: Option[Array[(Long, Int)]]) {

  /** The input as the DataFrames the program receives. */
  def frames(spark: SparkSession): (DataFrame, Option[DataFrame]) = {
    val e = spark.createDataFrame(
      java.util.Arrays.asList(edges.map { case (a, b) => Row(a, b) }: _*),
      StructType(Seq(StructField("src", LongType), StructField("dst", LongType))))
    val l = labels.map { ls =>
      spark.createDataFrame(
        java.util.Arrays.asList(ls.map { case (v, lab) => Row(v, lab) }: _*),
        StructType(Seq(StructField("v", LongType), StructField("lab", IntegerType))))
    }
    (e, l)
  }

  def reference: Reference = new Reference(edges, labels.map(_.toMap).getOrElse(Map.empty))
}

/** One mining query: a call into the program's public entry points, whose
  * result is normalised by `answer` and compared with `expected`.
  */
final case class Query(name: String, expected: Any)(val run: DataGraph => Any, val answer: Any => Any = identity)

/** Pattern- and plan-layer work of one pass, replayed by direct calls. */
final case class LayerWork(patternS: Double, candidates: Long, shapes: Long, planS: Double, matchingOrders: Long)

/** A benchmark workload: how its graph is generated from the seed, the
  * queries of one pass with their reference answers, and the pattern and
  * plan calls a pass makes, replayed for the traced run.
  */
trait Workload {
  def name: String
  def generate(spark: SparkSession, seed: Long): Input
  def queries(spark: SparkSession, input: Input): Seq[Query]
  def layerWork(lastResults: Map[String, Any]): LayerWork

  protected def collectEdges(df: DataFrame): Array[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1)))

  protected def collectLabels(df: DataFrame): Array[(Long, Int)] =
    df.collect().map(r => (r.getLong(0), r.getInt(1)))

  protected def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Plans every pattern the pass hands to the engine, as the engine does. */
  protected def planAll(ps: Seq[Pattern]): (Double, Long) = {
    val (plans, s) = timed(ps.map(Planner.plan))
    (s, plans.map(_.matchingOrders.map(_.sequences.size.toLong).sum).sum)
  }
}

object Workloads {
  val all: Seq[Workload] = Seq(Cliques, FsmMining)
  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** MI shape (zipf endpoints over 2,000 vertex ids, skew 1.6) with a
    * planted 6-clique. Small results, so per-query fixed costs dominate:
    * planning, jobs and tasks per join, scheduling.
    *
    * 6,000 draws rather than MI-lite's 24,000: at 24,000 the hubs make
    * straggler tasks, and the steady-pass time of runs on different seeds
    * spread by 0.3 of its median (interquartile range) on 4 cores, against
    * 0.09 at 6,000.
    */
  object Cliques extends Workload {
    val name = "cliques"
    private val nV = 2000L

    def generate(spark: SparkSession, seed: Long): Input = {
      val base = SynthData.graphEdgesZipf(spark, nV, 6000, skew = 1.6, seed = seed)
      // The planted clique sits on mid-degree ids, away from the hubs.
      val planted = SynthData.plantedClique(spark, 100L until 106L)
      Input(collectEdges(base.union(planted)), None)
    }

    def queries(spark: SparkSession, input: Input): Seq[Query] = Seq(
      Query("clique3", DuckRef.count(input.edges, Patterns.generateClique(3)))(CliqueCount.count(_, 3)),
      Query("exists3", input.reference.hasClique(3))(Existence.existsClique(_, 3)),
    )

    def layerWork(lastResults: Map[String, Any]): LayerWork = {
      val (ps, patternS) = timed(Seq(Patterns.generateClique(3)))
      val (planS, orders) = planAll(ps)
      LayerWork(patternS, ps.size, ps.size, planS, orders)
    }
  }

  /** Labelled MI shape with few edges (3,600 draws, 29 skewed labels):
    * frequent subgraph mining lists label-discovering matches and
    * aggregates them in `MniSupport`, and grows candidates level by level
    * in the Spark driver process. Two edges keep a pass near 12 s on 4
    * cores; each further level adds several candidate shapes of about 6 s.
    */
  object FsmMining extends Workload {
    val name = "fsm"
    private val nV = 2000L
    val maxEdges = 2
    val threshold = 40L

    def generate(spark: SparkSession, seed: Long): Input = {
      val edges = SynthData.graphEdgesZipf(spark, nV, 3600, skew = 1.6, seed = seed)
      val labels = SynthData.vertexLabelsSkewed(spark, nV, nLabels = 29, skew = 2.0, seed = seed + 1)
      Input(collectEdges(edges), Some(collectLabels(labels)))
    }

    def queries(spark: SparkSession, input: Input): Seq[Query] = {
      val supports = input.reference.fsmSupports(maxEdges)
      val expected = (1 to maxEdges).map(e => e -> supports(e).filter(_._2 >= threshold)).toMap
      Seq(Query("fsm", expected)(Fsm.run(spark, _, maxEdges, threshold), r => keyed(r.asInstanceOf[Fsm.Result])))
    }

    /** The engine's frequent patterns in the reference's canonical keys. */
    private def keyed(r: Fsm.Result): Map[Int, Map[String, Long]] =
      (1 to maxEdges).map { e =>
        e -> r.atSize(e).map { case (p, support) =>
          val vs = p.regularVertices
          val local = p.edges.toSeq.map { case (a, b) => (vs.indexOf(a), vs.indexOf(b)) }
          Reference.canonical(vs.map(v => p.labels(v)), local)._1 -> support
        }.toMap
      }.toMap

    /** Replays the candidate growth of `Fsm.run` over the frequent patterns it found. */
    def layerWork(lastResults: Map[String, Any]): LayerWork = {
      val result = lastResults("fsm").asInstanceOf[Fsm.Result]
      val ((candidates, shapes), patternS) = timed {
        val levels = (1 to maxEdges).map { e =>
          val cands =
            if (e == 1) Seq(Patterns.generateChain(2))
            else Patterns.extendByEdge(result.atSize(e - 1).map(_._1))
          (cands.size.toLong, CanonicalForm.distinct(cands.map(_.copy(labels = Map.empty))))
        }
        (levels.map(_._1).sum, levels.flatMap(_._2))
      }
      val (planS, orders) = planAll(shapes)
      LayerWork(patternS, candidates, shapes.size, planS, orders)
    }
  }
}
