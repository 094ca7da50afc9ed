package repro.baseline

import java.util.Arrays
import repro.graph.{Csr, DataGraph}

/** Adjacency view of a (lite-scale) data graph keyed by vertex id,
  * broadcast to tasks by the pattern-UNaware baselines. The real Arabesque /
  * Fractal / G-Miner keep the graph (or partition) resident per worker the
  * same way, as does Peregrine's engine: it is built from the same
  * `DataGraph.csr` snapshot the matching engine broadcasts.
  */
final case class LocalGraph(
    adj: Map[Long, Array[Long]], // sorted neighbor arrays
    labels: Map[Long, Int]
) extends Serializable {

  def neighbors(v: Long): Array[Long] = adj.getOrElse(v, LocalGraph.empty)

  def connected(u: Long, v: Long): Boolean =
    Arrays.binarySearch(neighbors(u), v) >= 0

  def degree(v: Long): Int = neighbors(v).length

  def vertexIds: Iterable[Long] = adj.keys
}

object LocalGraph {
  private val empty = Array.empty[Long]

  def fromDataGraph(g: DataGraph): LocalGraph = {
    val csr = g.csr
    val adj = (0 until csr.numVertices).map(v => v.toLong -> csr.neighbors(v).map(_.toLong)).toMap
    val labels = csr.labels.indices
      .collect { case v if csr.labels(v) != Csr.NoLabel => v.toLong -> csr.labels(v).toInt }
      .toMap
    LocalGraph(adj, labels)
  }

  /** Indexed undirected edge list + incidence, for edge-growth (FSM) baselines. */
  final case class EdgeIndex(
      edges: Array[(Long, Long)],          // sorted canonical (src < dst)
      incident: Map[Long, Array[Int]]      // vertex → sorted edge ids
  ) extends Serializable {
    def incidentEdges(v: Long): Array[Int] = incident.getOrElse(v, Array.empty[Int])
  }

  def edgeIndex(lg: LocalGraph): EdgeIndex = {
    val edges = lg.adj.toSeq
      .flatMap { case (u, ns) => ns.filter(_ > u).map(v => (u, v)) }
      .sorted
      .toArray
    val incident = edges.zipWithIndex
      .flatMap { case ((u, v), i) => Seq(u -> i, v -> i) }
      .groupBy(_._1)
      .map { case (v, arr) => v -> arr.map(_._2).sorted }
    EdgeIndex(edges, incident)
  }
}
