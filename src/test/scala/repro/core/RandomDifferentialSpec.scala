package repro.core

import scala.util.Random
import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.pattern.Pattern
import repro.plan.Planner

/** Fixed-seed randomised differential test of the engine: random connected
  * 3–5-vertex patterns with labels, anti-edges and anti-vertices, over small
  * partially labeled ER and skewed graphs. Every canonical count must equal
  * the brute-force `LocalRef` count, and the PRG-U count (no symmetry
  * breaking) must be the canonical count times the plan's multiplicity.
  *
  * Pattern `seed` is `RandomDifferentialSpec.pattern(seed)`: a failing seed
  * is reproduced by that call alone and is pinned as a named test.
  */
class RandomDifferentialSpec extends SparkSpec {
  import RandomDifferentialSpec._

  private val nV = 16
  // Every fifth vertex has no label row.
  private val labels = TestGraphs.labels(nV, 2, seed = 93).filter { case (v, _) => v % 5 != 0 }

  private def check(edges: Seq[(Long, Long)], seeds: Seq[Int]): Unit = {
    val g = TestGraphs.dataGraph(spark, edges, labels)
    val ref = LocalRef.graph(edges, labels)
    val results = seeds.map { seed =>
      val p = pattern(seed)
      val plan = Planner.plan(p)
      val canonical = MatchEngine.matchesWithPlan(g, plan).count()
      val raw = MatchEngine.matchesWithPlan(g, plan, symmetry = false).count()
      val expected = LocalRef.canonicalCount(p, ref)
      val ok = canonical == expected && raw == canonical * plan.multiplicity
      (expected, if (ok) None else
        Some(s"seed $seed $p: engine $canonical, LocalRef $expected, PRG-U $raw, multiplicity ${plan.multiplicity}"))
    }
    val failures = results.flatMap(_._2)
    assert(failures.isEmpty, failures.mkString("\n"))
    // The comparison is not vacuous: most patterns have matches.
    assert(results.count(_._1 > 0) >= seeds.size / 2, s"counts ${results.map(_._1)}")
  }

  test("random patterns on an ER graph agree with LocalRef and PRG-U") {
    check(TestGraphs.er(nV, 36, seed = 91), 1 to 40)
  }

  test("random patterns on a skewed graph agree with LocalRef and PRG-U") {
    check(TestGraphs.skewed(nV, 36, seed = 92), 41 to 80)
  }
}

object RandomDifferentialSpec {

  /** A random connected pattern: a tree over 3–5 vertices where each vertex
    * attaches to a smaller one (so `LocalRef` prunes at every level), extra
    * edges and anti-edges between the other pairs, sometimes an anti-vertex,
    * and labels 0/1 on about a quarter of the regular vertices.
    */
  def pattern(seed: Int): Pattern = {
    val rnd = new Random(seed)
    val k = 3 + rnd.nextInt(3)
    var p = Pattern.singleton(1)
    for (v <- 2 to k) p = p.addEdge(1 + rnd.nextInt(v - 1), v)
    for (u <- 1 to k; v <- u + 1 to k if !p.areConnected(u, v)) {
      val r = rnd.nextDouble()
      if (r < 0.3) p = p.addEdge(u, v)
      else if (r < 0.5) p = p.addAntiEdge(u, v)
    }
    if (rnd.nextDouble() < 0.3) {
      val ns = (1 to k).filter(_ => rnd.nextBoolean())
      for (x <- if (ns.isEmpty) Seq(1) else ns) p = p.addAntiEdge(k + 1, x)
    }
    for (v <- 1 to k if rnd.nextDouble() < 0.25) p = p.addLabel(v, rnd.nextInt(2))
    p
  }
}
