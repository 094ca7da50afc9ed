package repro.graph

import java.util.Arrays

/** Compressed sparse row snapshot of a `DataGraph`: the sorted adjacency
  * lists Peregrine's engine walks (§5.1), over the degree-ranked ids 0..n-1.
  *
  * The neighbours of `v` are `nbrs(offsets(v) until offsets(v + 1))`, in
  * ascending id (and therefore degree) order. `labels` is empty for an
  * unlabelled graph; otherwise `labels(v)` is the vertex's label widened to
  * a Long, or `Csr.NoLabel` when `v` has no label row, so every Int label,
  * negative ones included, is representable.
  *
  * Everything is an Int array, so the graph must have fewer than 2³¹
  * vertices and adjacency entries (twice the edges).
  */
final case class Csr(offsets: Array[Int], nbrs: Array[Int], labels: Array[Long]) {

  def numVertices: Int = offsets.length - 1

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  def neighbors(v: Int): Array[Int] = Arrays.copyOfRange(nbrs, offsets(v), offsets(v + 1))
}

object Csr {

  /** Label of a vertex without one. Outside the Int range, so it never
    * collides with a real label.
    */
  val NoLabel: Long = Long.MinValue

  /** Builds the CSR from canonical edges (src < dst) over ids 0..n-1 and
    * optional (vertex, label) pairs.
    */
  def build(n: Int, edges: Array[(Long, Long)], labelRows: Option[Array[(Long, Int)]]): Csr = {
    require(2L * edges.length < Int.MaxValue, s"${edges.length} edges do not fit an Int CSR")
    val offsets = new Array[Int](n + 1)
    for ((a, b) <- edges) { offsets(a.toInt + 1) += 1; offsets(b.toInt + 1) += 1 }
    for (v <- 0 until n) offsets(v + 1) += offsets(v)
    val fill = Arrays.copyOf(offsets, n)
    val nbrs = new Array[Int](offsets(n))
    for ((a, b) <- edges) {
      nbrs(fill(a.toInt)) = b.toInt; fill(a.toInt) += 1
      nbrs(fill(b.toInt)) = a.toInt; fill(b.toInt) += 1
    }
    for (v <- 0 until n) Arrays.sort(nbrs, offsets(v), offsets(v + 1))
    val labels = labelRows.fold(Array.emptyLongArray) { rows =>
      val a = Array.fill(n)(NoLabel)
      for ((v, lab) <- rows) a(v.toInt) = lab.toLong
      a
    }
    Csr(offsets, nbrs, labels)
  }

  /** First index in the sorted `a(from until to)` whose value is ≥ `key`. */
  def lowerBound(a: Array[Int], from: Int, to: Int, key: Int): Int = {
    var lo = from
    var hi = to
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }
}
