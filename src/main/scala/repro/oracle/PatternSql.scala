package repro.oracle

import repro.pattern.{Automorphism, Pattern}

/** Compiles a `Pattern` into a DuckDB SQL query counting its canonical
  * matches — an oracle fully independent of the exploration-plan machinery
  * (no symmetry breaking, no vertex cover, no matching orders).
  *
  * The query enumerates ALL isomorphisms: variables are introduced along a
  * spanning tree of the pattern's regular edges (`FROM g e1, g e2, ...`
  * over the symmetric edge table `g`), remaining edges become EXISTS,
  * anti-edges NOT EXISTS, labels EXISTS against the label table, and
  * anti-vertices a NOT EXISTS over a common-neighbor witness. The total is
  * divided by the automorphism multiplicity to obtain the canonical count.
  *
  * Tables expected by the emitted SQL (register via Oracle.assertEquivalent):
  *  - `g(src, dst)` — symmetric edge relation (both directions present);
  *  - `lab(v, lab)` — vertex labels, only when the pattern is labeled.
  */
object PatternSql {

  /** SQL producing a single row `cnt` = canonical match count of `p`. */
  def countSql(p: Pattern): String = {
    val mult = Automorphism.regularMultiplicity(p)
    s"SELECT CAST(count(*) / $mult AS BIGINT) AS cnt FROM ${fromWhere(p)}"
  }

  /** FROM ... WHERE ... enumerating all isomorphisms of `p` (internal, also
    * used by tests that want the raw isomorphism count).
    */
  def fromWhere(p: Pattern): String = {
    val (from, where, _) = compile(p)
    s"${from.mkString(", ")}${if (where.isEmpty) "" else " WHERE " + where.mkString(" AND ")}"
  }

  /** SQL counting the isomorphisms of `p` (no division by the multiplicity)
    * per labelling of its unlabeled regular vertices: one column `l_<v>`
    * per such vertex, holding its data vertex's label, plus `cnt`. A data
    * vertex without a label row takes part in no labelling.
    */
  def discoverySql(p: Pattern): String = {
    val (from, where, varOf) = compile(p)
    val free = p.regularVertices.filter(p.getLabel(_).isEmpty)
    require(free.nonEmpty, s"pattern has no unlabeled vertex: $p")
    val allFrom = from ++ free.map(v => s"lab d$v")
    val allWhere = where ++ free.map(v => s"d$v.v = ${varOf(v)}")
    s"SELECT ${free.map(v => s"d$v.lab AS l_$v").mkString(", ")}, count(*) AS cnt " +
      s"FROM ${allFrom.mkString(", ")} WHERE ${allWhere.mkString(" AND ")} " +
      s"GROUP BY ${free.map(v => s"d$v.lab").mkString(", ")}"
  }

  /** FROM items, WHERE conjuncts and the variable of each regular vertex. */
  private def compile(p: Pattern): (Seq[String], Seq[String], Map[Int, String]) = {
    val reg = p.regularVertices
    require(reg.nonEmpty && p.regularPartConnected, s"oracle needs a connected regular part: $p")

    // Spanning tree over regular edges, BFS from the smallest vertex.
    val root = reg.head
    val treeEdges = collection.mutable.ArrayBuffer.empty[(Int, Int)] // (bound parent, new child)
    val seen = collection.mutable.LinkedHashSet(root)
    while (seen.size < reg.size) {
      val next = (for {
        u <- seen.toSeq
        v <- p.getNeighbors(u).toSeq.sorted if !seen(v)
      } yield (u, v)).headOption.getOrElse(throw new IllegalStateException("regular part disconnected"))
      treeEdges += next
      seen += next._2
    }

    // Variable expression for each regular vertex.
    val varOf = collection.mutable.Map.empty[Int, String]
    val from = collection.mutable.ArrayBuffer.empty[String]
    val where = collection.mutable.ArrayBuffer.empty[String]
    if (treeEdges.isEmpty) {
      from += "(SELECT DISTINCT src AS v FROM g) b0"
      varOf(root) = "b0.v"
    } else {
      varOf(root) = "e1.src"
      for (((u, v), i) <- treeEdges.zipWithIndex) {
        val a = s"e${i + 1}"
        from += s"g $a"
        if (u != root || i > 0) where += s"$a.src = ${varOf(u)}"
        varOf(v) = s"$a.dst"
      }
      // The first tree edge defines var(root) implicitly; nothing to add.
    }

    val treeSet = treeEdges.map { case (u, v) => Pattern.norm(u, v) }.toSet
    for ((u, v) <- p.edges.toSeq.sorted if reg.contains(u) && reg.contains(v) && !treeSet(Pattern.norm(u, v)))
      where += s"EXISTS (SELECT 1 FROM g x WHERE x.src = ${varOf(u)} AND x.dst = ${varOf(v)})"

    for {
      u <- reg; v <- reg if u < v
    } where += s"${varOf(u)} <> ${varOf(v)}"

    for ((u, v) <- p.antiEdges.toSeq.sorted if reg.contains(u) && reg.contains(v))
      where += s"NOT EXISTS (SELECT 1 FROM g x WHERE x.src = ${varOf(u)} AND x.dst = ${varOf(v)})"

    for (u <- reg; l <- p.getLabel(u))
      where += s"EXISTS (SELECT 1 FROM lab l WHERE l.v = ${varOf(u)} AND l.lab = '$l')"

    for (av <- p.antiVertices) {
      val ns = p.antiNeighbors(av).toSeq.sorted
      val excluded = ns.flatMap(x => p.getNeighbors(x)).distinct.sorted
      val innerFrom = ns.indices.map(i => s"g a$i").mkString(", ")
      val innerConds =
        ns.zipWithIndex.map { case (x, i) => s"a$i.src = ${varOf(x)}" } ++
          ns.indices.drop(1).map(i => s"a$i.dst = a0.dst") ++
          excluded.map(y => s"a0.dst <> ${varOf(y)}")
      where += s"NOT EXISTS (SELECT 1 FROM $innerFrom WHERE ${innerConds.mkString(" AND ")})"
    }

    (from.toSeq, where.toSeq, varOf.toMap)
  }
}
