package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.DataGraph
import repro.pattern.{Pattern, Patterns}

/** Early termination for existence queries (§5.3).
  *
  * Peregrine's matching threads periodically observe a stop notification
  * raised by the user function (`stopExploration()`). On the Spark
  * substrate the engine's partitions produce matches lazily, one at a time,
  * so a limit on the match DataFrame is the stop notification: once a
  * partition has delivered the rows the limit needs, its exploration is
  * never resumed. This holds on any master.
  *
  *  - `exists`: `take(1)` — the first job explores one partition (the
  *    highest-degree roots); further jobs widen the scan only while no match
  *    has been found;
  *  - `countAtLeast`: a `LIMIT target` — each partition stops after
  *    `target` matches.
  */
object Existence {

  /** Whether at least one match of `p` exists in `g`. */
  def exists(g: DataGraph, p: Pattern): Boolean =
    MatchEngine.matches(g, p).take(1).nonEmpty

  /** Fig 4f: whether a k-clique exists.
    *
    * Up to k = 4 this is `exists` on the k-clique. For larger k (the paper
    * uses k = 14) planning the clique enumerates its k! automorphisms, so
    * the clique is grown stepwise as oriented joins over the edge relation
    * with an emptiness check after every extension — the dataflow analogue
    * of Peregrine terminating its 14-clique search as soon as the
    * exploration frontier dies (§6.5). Each step is materialized
    * (localCheckpoint) to keep plans small.
    */
  def existsClique(g: DataGraph, k: Int): Boolean = {
    require(k >= 1)
    if (k == 1) return g.numVertices > 0
    if (k <= 4) return exists(g, Patterns.generateClique(k))
    import org.apache.spark.sql.functions._
    def c(i: Int) = s"m_$i"
    def edgeRel(s: String, d: String) = g.adj.select(col("src") as s, col("dst") as d)
    var cur = g.edges.select(col("src") as c(1), col("dst") as c(2)).localCheckpoint(true)
    var i = 2
    while (i < k) {
      i += 1
      var next = cur
        .join(edgeRel("_as", "_ad"), col(c(i - 1)) === col("_as"))
        .drop("_as")
        .withColumnRenamed("_ad", c(i))
        .filter(col(c(i)) > col(c(i - 1)))
      for (j <- 1 to i - 2)
        next = next
          .join(edgeRel("_xs", "_xd"), col(c(j)) === col("_xs") && col(c(i)) === col("_xd"))
          .drop("_xs", "_xd")
      cur = next.localCheckpoint(true)
      if (cur.isEmpty) return false
    }
    true
  }

  /** Early-terminating check that `df` yields at least `target` rows: every
    * partition stops producing after `target` rows, so with the engine's
    * lazy partitions the exploration itself stops — the dataflow analogue
    * of `stopExploration()`.
    */
  def countAtLeast(df: DataFrame, target: Long): Boolean = {
    require(target >= 1)
    require(target <= Int.MaxValue, s"limit $target exceeds Int.MaxValue")
    df.limit(target.toInt).count() == target
  }

  /** Early-terminating existence of `p` in `g` via `countAtLeast`. */
  def existsEarlyStop(g: DataGraph, p: Pattern): Boolean =
    countAtLeast(MatchEngine.matches(g, p), 1)
}
