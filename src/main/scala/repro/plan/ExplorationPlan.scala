package repro.plan

import repro.pattern.{Automorphism, Pattern}

/** One matching order (§4.1): an ordered view of the core pattern p_C.
  *
  * @param remapped  copy of p_C whose vertex ids are positions 1..|V(p_C)|
  *                  in a valid sequence
  * @param sequences the valid vertex sequences that produce this view; a
  *                  match for the view yields one p_C match per sequence
  */
final case class MatchingOrder(remapped: Pattern, sequences: Vector[Vector[Int]])

/** The exploration plan of Fig 5: everything the engine needs to find
  * canonical matches of `pattern` by guided traversal, with no per-match
  * canonicality or isomorphism checks.
  *
  * @param pattern        the full pattern (with anti-edges / anti-vertices)
  * @param partialOrders  symmetry-breaking constraints (a, b) ⇒ m(a) < m(b)
  * @param orderClosure   transitive closure of `partialOrders`
  * @param core           minimum connected vertex cover inducing p_C
  * @param joinOrder      connectivity-respecting order over the regular
  *                       vertices (core first) used by the dataflow engine —
  *                       see MatchEngine for why a single order under the
  *                       partial-order predicates is equivalent to the union
  *                       over matching orders
  * @param multiplicity   |distinct actions of Aut(pattern) on regular
  *                       vertices| — the over-count factor without symmetry
  *                       breaking (PRG-U)
  */
final case class ExplorationPlan(
    pattern: Pattern,
    partialOrders: Seq[(Int, Int)],
    orderClosure: Set[(Int, Int)],
    core: Set[Int],
    joinOrder: Vector[Int],
    multiplicity: Int
) {
  /** Ordered views of p_C (deduplicated), computed on first use: the engine
    * never reads them, and there are up to |V(p_C)|! orders to enumerate.
    */
  lazy val matchingOrders: Seq[MatchingOrder] = Planner.matchingOrders(pattern, core, partialOrders)

  /** Core pattern p_C: subgraph induced by the cover. */
  def corePattern: Pattern = pattern.inducedSubgraph(core)

  /** Regular vertices outside the core (each has all regular neighbors in core). */
  def nonCore: Vector[Int] = pattern.regularVertices.filterNot(core)

  /** Whether the pair (a, b) is ordered (either direction) by the closure. */
  def ordered(a: Int, b: Int): Boolean =
    orderClosure.contains((a, b)) || orderClosure.contains((b, a))
}

/** Computes exploration plans (Fig 5's `generatePlan`). */
object Planner {

  def plan(p: Pattern): ExplorationPlan = {
    require(p.regularVertices.nonEmpty, s"pattern has no regular vertices: $p")
    require(p.regularPartConnected, s"regular part of pattern must be connected: $p")
    for (av <- p.antiVertices)
      require(
        p.antiNeighbors(av).forall(x => !p.isAntiVertex(x)),
        s"anti-vertex $av may only be anti-adjacent to regular vertices: $p"
      )

    val partialOrders = SymmetryBreaking.partialOrders(p)
    val closure = SymmetryBreaking.closure(partialOrders)
    val core = VertexCover.minConnectedCover(p)
    val joinOrder = computeJoinOrder(p, core)
    val multiplicity = Automorphism.regularMultiplicity(p)
    ExplorationPlan(p, partialOrders, closure, core, joinOrder, multiplicity)
  }

  /** All total orders of V(p_C) consistent with the partial ordering,
    * remapped to position graphs, with duplicate views merged (§4.1).
    */
  private[plan] def matchingOrders(
      p: Pattern,
      core: Set[Int],
      partialOrders: Seq[(Int, Int)]
  ): Seq[MatchingOrder] = {
    val coreVs = p.vertices.filter(core)
    val pC = p.inducedSubgraph(core)
    val sequences = coreVs.permutations.filter { seq =>
      val rank = seq.zipWithIndex.toMap
      SymmetryBreaking.respects(partialOrders, rank)
    }.toVector
    sequences
      .map { seq =>
        val pos = seq.zipWithIndex.map { case (v, i) => v -> (i + 1) }.toMap
        (pC.remap(pos), seq)
      }
      .groupBy(_._1.toString)
      .toSeq
      .sortBy(_._1)
      .map { case (_, grp) => MatchingOrder(grp.head._1, grp.map(_._2)) }
  }

  /** Connectivity-respecting order: BFS over p_C's regular edges from its
    * smallest vertex, then the non-core vertices in ascending id order
    * (every non-core vertex is anchored by a core neighbor, since the core
    * is a vertex cover).
    */
  private def computeJoinOrder(p: Pattern, core: Set[Int]): Vector[Int] = {
    val coreSorted = p.vertices.filter(core)
    val order = collection.mutable.ArrayBuffer(coreSorted.head)
    val seen = collection.mutable.Set(coreSorted.head)
    while (order.size < coreSorted.size) {
      val next = coreSorted
        .find(v => !seen(v) && p.getNeighbors(v).exists(seen))
        .getOrElse(throw new IllegalStateException(s"core not connected: $core in $p"))
      order += next
      seen += next
    }
    order.toVector ++ p.regularVertices.filterNot(core)
  }
}
