package repro.core

import java.util.Arrays
import scala.reflect.ClassTag
import org.apache.spark.{TaskContext, TaskKilledException}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import org.apache.spark.util.LongAccumulator
import repro.graph.{Csr, DataGraph}
import repro.pattern.Pattern
import repro.plan.{ExplorationPlan, Planner}

/** The pattern-aware matching engine (§4, §5.1–5.3) on the Spark substrate.
  *
  * `matches` runs the exploration plan of a pattern as a depth-first walk
  * over the graph's degree-ordered CSR (`DataGraph.csr`, broadcast once per
  * graph), one pattern vertex per level in the plan's connectivity-respecting
  * `joinOrder`:
  *
  *  - candidates for a vertex are the adjacency list of a bound pattern
  *    neighbour (the shortest one), clipped by binary search to the
  *    symmetry-breaking bounds `m(a) < m(b)` of `orderClosure`; because ids
  *    are degree ranks, the bounds also orient the search (§5.2), and no
  *    non-canonical match is ever generated or checked;
  *  - the other bound pattern neighbours are membership checks, i.e. the
  *    adjacency-list intersection of the paper; unordered, non-adjacent
  *    earlier vertices are `≠` checks;
  *  - anti-edges (§4.2) are non-membership checks (set difference);
  *  - labels are constraints on, or discovered from, the CSR's label array;
  *  - anti-vertices (§4.3) are checked once every regular vertex is bound,
  *    as emptiness of the common neighbourhood of their anti-neighbours.
  *
  * Roots are dealt round-robin from the highest degree rank down over a
  * fixed multiple of `defaultParallelism` partitions. Each partition streams
  * its matches from an explicit-stack iterator, so a downstream limit stops
  * the exploration itself (§5.3), and a cancelled task stops at its next
  * root. The result is a DataFrame with one column `m_<v>` per regular
  * vertex, in join order (plus `l_<v>` after `m_<v>` for discovered labels).
  * `foldMatches` runs the same search but hands each match to a
  * per-partition aggregator instead of building a row (§5.4).
  *
  * Peregrine unions traversals over all matching orders of p_C; a single
  * join order under the partial-order bounds yields the same set, because
  * every canonical match satisfies exactly one linear extension of the
  * partial order. The engine therefore consumes `plan.joinOrder` and
  * `plan.orderClosure`.
  *
  * With `symmetry = false` the engine models pattern-UNaware systems
  * (PRG-U, §6.6): the bounds are dropped and ordered pairs become plain `≠`
  * checks, so every automorphic image is generated and counting must divide
  * by the plan's multiplicity.
  *
  * Scaling limit: the graph must fit as an Int CSR in driver and executor
  * memory (fewer than 2³¹ vertices and adjacency entries).
  */
object MatchEngine {

  /** Root partitions per `defaultParallelism` slot. */
  private val PartitionsPerSlot = 4

  /** Column holding the data vertex matched to pattern vertex `v`. */
  def mcol(v: Int): String = s"m_$v"

  /** Column holding the discovered label of pattern vertex `v`. */
  def lcol(v: Int): String = s"l_$v"

  /** All matches of `p` in `g` as a DataFrame with one column `m_<v>` per
    * regular pattern vertex (plus `l_<v>` for unlabeled vertices when
    * `discoverLabels` is set and the graph is labeled). A vertex without a
    * label row matches no labeled pattern vertex and discovers nothing.
    */
  def matches(
      g: DataGraph,
      p: Pattern,
      symmetry: Boolean = true,
      discoverLabels: Boolean = false
  ): DataFrame =
    matchesWithPlan(g, Planner.plan(p), symmetry, discoverLabels)

  /** As `matches`, for a given plan. `visited`, when set, receives the
    * number of partial matches the exploration binds (roots and full
    * matches included): the explored count of Fig 1.
    */
  def matchesWithPlan(
      g: DataGraph,
      plan: ExplorationPlan,
      symmetry: Boolean = true,
      discoverLabels: Boolean = false,
      visited: Option[LongAccumulator] = None
  ): DataFrame = {
    val program = compile(g, plan, symmetry, discoverLabels)
    val rows = search(g, program, visited)(new Rows(_, program))
    g.edges.sparkSession.createDataFrame(rows, program.schema)
  }

  /** Folds the matches of `plan` without building rows (on-the-fly
    * aggregation, §5.4). Each root partition runs the search of
    * `matchesWithPlan` into a fresh `init()` and calls `add(acc, m, labels)`
    * once per match: `m(i)` is the vertex bound at depth `i` of
    * `plan.joinOrder` and `labels(i)` its discovered label (`Csr.NoLabel` at
    * depths that discover none). Both arrays are overwritten by the next
    * match. The result holds one accumulator per partition; nothing runs
    * until an action.
    */
  private[core] def foldMatches[A: ClassTag](
      g: DataGraph,
      plan: ExplorationPlan,
      symmetry: Boolean,
      discoverLabels: Boolean
  )(init: () => A)(add: (A, Array[Int], Array[Long]) => Unit): RDD[A] = {
    val program = compile(g, plan, symmetry, discoverLabels)
    val discovering = program.steps.indices.filter(program.steps(_).discover).toArray
    search(g, program, None) { ms =>
      val acc = init()
      val labels = Array.fill(program.steps.length)(Csr.NoLabel)
      while (ms.advance()) {
        var j = 0
        while (j < discovering.length) { labels(discovering(j)) = ms.label(discovering(j)); j += 1 }
        add(acc, ms.m, labels)
      }
      Iterator.single(acc)
    }
  }

  private def compile(g: DataGraph, plan: ExplorationPlan, symmetry: Boolean, discoverLabels: Boolean): Program = {
    val p = plan.pattern
    require(
      p.regularVertices.forall(v => p.getLabel(v).isEmpty) || g.labels.isDefined,
      "labeled pattern requires a labeled graph"
    )
    Program.compile(plan, symmetry, discoverLabels && g.labels.isDefined)
  }

  /** One partition per root share; `each` turns its search into the partition. */
  private def search[A: ClassTag](g: DataGraph, program: Program, visited: Option[LongAccumulator])(
      each: Matches => Iterator[A]
  ): RDD[A] = {
    val sc = g.edges.sparkSession.sparkContext
    val csr = g.broadcastCsr
    val parts = PartitionsPerSlot * sc.defaultParallelism
    sc.parallelize(Seq.empty[Int], parts)
      .mapPartitionsWithIndex((i, _) => each(new Matches(csr.value, program, i, parts, visited)))
  }

  /** Count canonical matches. With symmetry breaking the match set is
    * already canonical; without it (PRG-U) every automorphic image is
    * generated, so the count is divided by the multiplicity — exactly
    * AutoMine's counting correction, which is why PRG-U cannot '''list'''
    * unique matches (§2.2.2).
    */
  def countMatches(
      g: DataGraph,
      p: Pattern,
      symmetry: Boolean = true,
      visited: Option[LongAccumulator] = None
  ): Long = {
    val plan = Planner.plan(p)
    val n = matchesWithPlan(g, plan, symmetry, visited = visited).count()
    if (symmetry) n
    else {
      require(n % plan.multiplicity == 0, s"raw count $n not divisible by multiplicity ${plan.multiplicity}")
      n / plan.multiplicity
    }
  }

  /** How to bind the vertex at one depth of the join order. All vertex
    * references are depths (positions in the join order), not pattern ids.
    *
    * @param adjacent earlier pattern neighbours: candidates come from one
    *                 of their lists and must be in all of them
    * @param lower    earlier vertices w with m(w) < m(v)
    * @param upper    earlier vertices w with m(v) < m(w)
    * @param distinct earlier vertices only required to differ from v
    * @param anti     earlier vertices that must not be adjacent to v
    * @param label    required label, or `Csr.NoLabel`
    * @param discover whether v's label is discovered (emitted as `l_<v>`)
    */
  private final case class Step(
      adjacent: Array[Int],
      lower: Array[Int],
      upper: Array[Int],
      distinct: Array[Int],
      anti: Array[Int],
      label: Long,
      discover: Boolean
  )

  /** An anti-vertex: the bound `neighbors` must have no common neighbour
    * other than the images of `excused` (their pattern neighbours).
    */
  private final case class AntiVertex(neighbors: Array[Int], excused: Array[Int])

  /** A plan compiled to depth-indexed steps, shipped to every task. */
  private final case class Program(steps: Array[Step], antiVertices: Array[AntiVertex], schema: StructType)

  private object Program {
    def compile(plan: ExplorationPlan, symmetry: Boolean, discoverLabels: Boolean): Program = {
      val p = plan.pattern
      val order = plan.joinOrder
      val depth = order.zipWithIndex.toMap
      val steps = order.zipWithIndex.map { case (v, i) =>
        val prior = order.take(i)
        val adjacent = prior.filter(p.areConnected(v, _))
        require(i == 0 || adjacent.nonEmpty, s"join order not connectivity-respecting at $v")
        val lower = if (symmetry) prior.filter(w => plan.orderClosure((w, v))) else Vector.empty
        val upper = if (symmetry) prior.filter(w => plan.orderClosure((v, w))) else Vector.empty
        val distinct = prior.filter(w => !p.areConnected(v, w) && !lower.contains(w) && !upper.contains(w))
        val anti = prior.filter(p.areAntiAdjacent(v, _))
        Step(
          adjacent.map(depth).toArray, lower.map(depth).toArray, upper.map(depth).toArray,
          distinct.map(depth).toArray, anti.map(depth).toArray,
          p.getLabel(v).map(_.toLong).getOrElse(Csr.NoLabel),
          discoverLabels && p.getLabel(v).isEmpty)
      }
      val antiVertices = p.antiVertices.map { av =>
        val ns = p.antiNeighbors(av).toSeq.sorted
        // Per the anti-vertex formula, a common neighbour is only excused if
        // it is the image of a pattern-neighbour of one of ū's neighbours.
        val excused = ns.flatMap(p.getNeighbors).distinct.sorted
        AntiVertex(ns.map(depth).toArray, excused.map(depth).toArray)
      }
      val fields = order.zip(steps).flatMap { case (v, s) =>
        StructField(mcol(v), LongType, nullable = false) +:
          (if (s.discover) Seq(StructField(lcol(v), IntegerType, nullable = false)) else Nil)
      }
      Program(steps.toArray, antiVertices.toArray, StructType(fields))
    }
  }

  /** The matches rooted in one partition's share of the vertices
    * (`n-1-part`, `n-1-part-parts`, …), found depth-first with an explicit
    * stack: `m(i)` is the vertex bound at depth i, and `pos(i)` / `end(i)`
    * the cursor over its remaining candidates in `csr.nbrs`. Only the next
    * match is ever computed, so a consumer that stops early stops the search.
    */
  private final class Matches(
      csr: Csr,
      program: Program,
      part: Int,
      parts: Int,
      visited: Option[LongAccumulator]
  ) {
    private val steps = program.steps
    private val k = steps.length
    private val nbrs = csr.nbrs
    private val offsets = csr.offsets
    private val labels = csr.labels
    private val task = TaskContext.get()
    val m = new Array[Int](k)
    private val pos = new Array[Int](k)
    private val end = new Array[Int](k)
    private val anchor = new Array[Int](k)
    private var nextRoot = csr.numVertices - 1 - part
    private var depth = 0 // vertices bound

    /** Label of the vertex bound at depth `i`. */
    def label(i: Int): Long = labels(m(i))

    /** Binds vertices until a full match is found in `m`; false when none
      * is left.
      */
    def advance(): Boolean = {
      if (depth == k) depth -= 1 // the previous match was emitted
      while (true) {
        val bound = if (depth == 0) bindRoot() else bindNext(depth)
        if (!bound) {
          if (depth == 0) return false
          depth -= 1
        } else if (depth == k) {
          if (antiVerticesHold()) return true
          depth -= 1
        }
      }
      false
    }

    private def visit(): Unit = visited.foreach(_.add(1))

    /** Binds the next root; a killed task stops here, once per root. */
    private def bindRoot(): Boolean = {
      while (nextRoot >= 0) {
        if (task != null && task.isInterrupted()) throw new TaskKilledException("killed between roots")
        val r = nextRoot
        nextRoot -= parts
        if (labelOk(steps(0), r)) {
          m(0) = r
          depth = 1
          visit()
          if (k > 1) open(1)
          return true
        }
      }
      false
    }

    /** Advances the cursor at depth `i` to its next accepted candidate. */
    private def bindNext(i: Int): Boolean = {
      val s = steps(i)
      while (pos(i) < end(i)) {
        val c = nbrs(pos(i))
        pos(i) += 1
        if (accepts(s, i, c)) {
          m(i) = c
          depth = i + 1
          visit()
          if (depth < k) open(depth)
          return true
        }
      }
      false
    }

    /** Sets the cursor of depth `i`: the shortest adjacency list of a bound
      * pattern neighbour, clipped to the symmetry-breaking bounds.
      */
    private def open(i: Int): Unit = {
      val s = steps(i)
      var lo = 0
      var j = 0
      while (j < s.lower.length) { lo = math.max(lo, m(s.lower(j)) + 1); j += 1 }
      var hi = Int.MaxValue
      j = 0
      while (j < s.upper.length) { hi = math.min(hi, m(s.upper(j))); j += 1 }
      pos(i) = 0; end(i) = 0; anchor(i) = -1
      j = 0
      while (lo < hi && j < s.adjacent.length) {
        val u = m(s.adjacent(j))
        val from = Csr.lowerBound(nbrs, offsets(u), offsets(u + 1), lo)
        val to = Csr.lowerBound(nbrs, from, offsets(u + 1), hi)
        if (anchor(i) < 0 || to - from < end(i) - pos(i)) {
          pos(i) = from; end(i) = to; anchor(i) = s.adjacent(j)
        }
        j += 1
      }
    }

    private def accepts(s: Step, i: Int, c: Int): Boolean = {
      var j = 0
      while (j < s.adjacent.length) {
        val a = s.adjacent(j)
        if (a != anchor(i) && !adjacent(m(a), c)) return false
        j += 1
      }
      j = 0
      while (j < s.distinct.length) { if (m(s.distinct(j)) == c) return false; j += 1 }
      j = 0
      while (j < s.anti.length) { if (adjacent(m(s.anti(j)), c)) return false; j += 1 }
      labelOk(s, c)
    }

    private def labelOk(s: Step, c: Int): Boolean =
      if (s.label != Csr.NoLabel) labels(c) == s.label
      else !s.discover || labels(c) != Csr.NoLabel

    private def adjacent(u: Int, c: Int): Boolean =
      Arrays.binarySearch(nbrs, offsets(u), offsets(u + 1), c) >= 0

    private def antiVerticesHold(): Boolean =
      program.antiVertices.forall { av =>
        val ns = av.neighbors.map(m)
        val shortest = ns.minBy(csr.degree)
        var common = false
        var j = offsets(shortest)
        while (!common && j < offsets(shortest + 1)) {
          val w = nbrs(j)
          common = !av.excused.exists(e => m(e) == w) && ns.forall(u => u == shortest || adjacent(u, w))
          j += 1
        }
        !common
      }
  }

  /** The matches of one partition as rows of `program.schema`. */
  private final class Rows(ms: Matches, program: Program) extends Iterator[Row] {
    private val steps = program.steps
    private var pending = false

    def hasNext: Boolean = {
      if (!pending) pending = ms.advance()
      pending
    }

    def next(): Row = {
      if (!hasNext) throw new NoSuchElementException("no more matches")
      pending = false
      val values = new Array[Any](program.schema.length)
      var j = 0
      for (i <- steps.indices) {
        values(j) = ms.m(i).toLong; j += 1
        if (steps(i).discover) { values(j) = ms.label(i).toInt; j += 1 }
      }
      new GenericRow(values)
    }
  }
}
