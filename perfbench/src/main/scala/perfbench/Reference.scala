package perfbench

import scala.collection.mutable

/** Reference answers computed in memory, for the correctness gate.
  *
  * Shares no code with the program under test: no `Pattern`, planner,
  * canonical form or Spark. Vertices are renumbered 0..n-1 and kept as
  * sorted adjacency arrays; clique existence comes from ordered
  * candidate-set intersection, FSM supports from an explicit enumeration of
  * every connected edge set with brute-force canonical labelling.
  */
final class Reference(edgeList: Array[(Long, Long)], labelOf: Map[Long, Int]) {

  private val ids: Array[Long] = edgeList.flatMap { case (a, b) => Array(a, b) }.distinct.sorted
  private val index: Map[Long, Int] = ids.zipWithIndex.toMap
  val n: Int = ids.length

  /** Sorted neighbour ids of every vertex (self loops and duplicates dropped). */
  val adj: Array[Array[Int]] = {
    val sets = Array.fill(n)(mutable.Set.empty[Int])
    for ((a, b) <- edgeList if a != b) {
      val (i, j) = (index(a), index(b))
      sets(i) += j; sets(j) += i
    }
    sets.map(_.toArray.sorted)
  }

  /** Neighbours with a larger id: each clique is found once, from its smallest vertex. */
  private val up: Array[Array[Int]] = Array.tabulate(n)(u => adj(u).filter(_ > u))

  private def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { out(k) = a(i); k += 1; i += 1; j += 1 }
    }
    java.util.Arrays.copyOf(out, k)
  }

  /** Whether some k-clique exists. */
  def hasClique(k: Int): Boolean = {
    def rec(cands: Array[Int], r: Int): Boolean =
      if (r == 0) true
      else if (cands.length < r) false
      else cands.exists(v => rec(intersect(cands, up(v)), r - 1))
    k <= 1 && n > 0 || (0 until n).exists(u => rec(up(u), k - 1))
  }

  /** MNI supports of every connected labelled pattern with 1..maxEdges edges,
    * keyed by edge count and then by `Reference.canonical` key. Every connected edge
    * set of the graph is enumerated once; each labelling that achieves the
    * canonical key adds its vertices to the domains of the key's positions,
    * so domains cover all isomorphisms, automorphic images included.
    */
  def fsmSupports(maxEdges: Int): Map[Int, Map[String, Long]] = {
    val edgeIds = mutable.HashMap.empty[(Int, Int), Int]
    val ends = mutable.ArrayBuffer.empty[(Int, Int)]
    for (u <- 0 until n; v <- up(u)) { edgeIds((u, v)) = ends.size; ends += ((u, v)) }
    def incident(v: Int): Iterator[Int] = adj(v).iterator.map(w => edgeIds((math.min(v, w), math.max(v, w))))
    val lab: Array[Int] = ids.map(labelOf)

    val domains = mutable.HashMap.empty[String, Array[mutable.BitSet]]
    val out = mutable.Map.empty[Int, Map[String, Long]]
    var level: Iterable[Vector[Int]] = ends.indices.map(Vector(_))
    for (e <- 1 to maxEdges) {
      if (e > 1) {
        val next = mutable.HashSet.empty[Vector[Int]]
        for (set <- level; v <- set.iterator.flatMap(i => Iterator(ends(i)._1, ends(i)._2)); f <- incident(v))
          if (!set.contains(f)) next += (set :+ f).sorted
        level = next
      }
      domains.clear()
      for (set <- level) {
        val vs = set.flatMap(i => Seq(ends(i)._1, ends(i)._2)).distinct
        val local = set.map(i => (vs.indexOf(ends(i)._1), vs.indexOf(ends(i)._2)))
        val (key, placements) = Reference.canonical(vs.map(lab), local)
        val doms = domains.getOrElseUpdate(key, Array.fill(vs.size)(mutable.BitSet.empty))
        for (perm <- placements; pos <- perm.indices) doms(pos) += vs(perm(pos))
      }
      out(e) = domains.map { case (k, d) => k -> d.map(_.size.toLong).min }.toMap
    }
    out.toMap
  }
}

object Reference {

  /** Canonical key of a small labelled graph and the vertex orders that
    * produce it. Vertex `i` has label `labels(i)`; `edges` are index pairs.
    * An order lists the vertex at each canonical position; the key is the
    * smallest (labels by position, adjacency bits) string over all orders.
    */
  def canonical(labels: Seq[Int], edges: Seq[(Int, Int)]): (String, Seq[Seq[Int]]) = {
    val m = labels.size
    val adjM = Array.ofDim[Boolean](m, m)
    for ((a, b) <- edges) { adjM(a)(b) = true; adjM(b)(a) = true }
    val keyed = (0 until m).permutations.map { perm =>
      val ls = perm.map(labels).mkString(",")
      val bits = (for (i <- 0 until m; j <- i + 1 until m) yield if (adjM(perm(i))(perm(j))) '1' else '0').mkString
      (s"$m|$ls|$bits", perm)
    }.toSeq
    val best = keyed.minBy(_._1)._1
    (best, keyed.collect { case (k, perm) if k == best => perm })
  }
}
