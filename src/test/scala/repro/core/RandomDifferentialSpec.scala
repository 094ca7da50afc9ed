package repro.core

import scala.util.Random
import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.pattern.{CanonicalForm, Pattern}
import repro.plan.Planner

/** Fixed-seed randomised differential test of the engine: random connected
  * 3–5-vertex patterns with labels, anti-edges and anti-vertices, over small
  * partially labeled ER and skewed graphs. Every canonical count must equal
  * the brute-force `LocalRef` count, and the PRG-U count (no symmetry
  * breaking) must be the canonical count times the plan's multiplicity.
  * MNI supports, with and without symmetry breaking, must equal
  * `LocalRef.mniSupport`: of the patterns with every regular vertex
  * labeled, and of each labeling that label discovery finds on the
  * unlabeled 3–4-vertex shapes.
  *
  * Pattern `seed` is `RandomDifferentialSpec.pattern(seed)`: a failing seed
  * is reproduced by that call alone and is pinned as a named test.
  */
class RandomDifferentialSpec extends SparkSpec {
  import RandomDifferentialSpec._

  private val nV = 16
  // Every fifth vertex has no label row.
  private val labels = TestGraphs.labels(nV, 2, seed = 93).filter { case (v, _) => v % 5 != 0 }
  private lazy val er = TestGraphs.er(nV, 36, seed = 91)
  private lazy val skewed = TestGraphs.skewed(nV, 36, seed = 92)

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

  /** `MniSupport.support` of `labeled(seed)`, with and without symmetry
    * breaking, equals `LocalRef.mniSupport`.
    */
  private def checkSupport(edges: Seq[(Long, Long)], seeds: Seq[Int]): Unit = {
    val g = TestGraphs.dataGraph(spark, edges, labels)
    val ref = LocalRef.graph(edges, labels)
    val results = seeds.map { seed =>
      val p = labeled(seed)
      val expected = LocalRef.mniSupport(p, ref)
      val got = Seq(true, false).map(MniSupport.support(g, p, _))
      (expected, if (got.forall(_ == expected)) None else
        Some(s"seed $seed $p: MNI with/without symmetry breaking ${got.mkString("/")}, LocalRef $expected"))
    }
    val failures = results.flatMap(_._2)
    assert(failures.isEmpty, failures.mkString("\n"))
    assert(results.count(_._1 > 0) >= seeds.size / 4, s"supports ${results.map(_._1)}")
  }

  /** `MniSupport.labeledSupports` of the 3–4-vertex `shape(seed)`s, with
    * and without symmetry breaking, finds exactly the labelings whose
    * `LocalRef.mniSupport` is positive, with that support.
    */
  private def checkDiscovery(edges: Seq[(Long, Long)], seeds: Seq[Int]): Unit = {
    val g = TestGraphs.dataGraph(spark, edges, labels)
    val ref = LocalRef.graph(edges, labels)
    val shapes = seeds.map(s => (s, shape(s))).filter(_._2.regularVertices.size <= 4)
    val results = shapes.map { case (seed, p) =>
      val expected = labelings(p)
        .map(lp => (CanonicalForm.key(lp), LocalRef.mniSupport(lp, ref)))
        .filter(_._2 > 0).toMap
      val got = Seq(true, false).map(MniSupport.labeledSupports(g, p, _).map { case (lp, s) => (CanonicalForm.key(lp), s) })
      (expected.size, if (got.forall(r => r.size == expected.size && r.toMap == expected)) None else
        Some(s"seed $seed $p: labeled supports with/without symmetry breaking ${got.mkString(" / ")}, LocalRef $expected"))
    }
    val failures = results.flatMap(_._2)
    assert(failures.isEmpty, failures.mkString("\n"))
    assert(shapes.size >= seeds.size / 2 && results.count(_._1 > 0) >= shapes.size / 2, s"labelings found ${results.map(_._1)}")
  }

  test("random patterns on an ER graph agree with LocalRef and PRG-U") {
    check(er, 1 to 40)
  }

  test("random patterns on a skewed graph agree with LocalRef and PRG-U") {
    check(skewed, 41 to 80)
  }

  test("MNI support of random labeled patterns agrees with LocalRef") {
    checkSupport(er, 1 to 30)
    checkSupport(skewed, 41 to 70)
  }

  test("label discovery on random shapes agrees with LocalRef MNI") {
    checkDiscovery(er, 1 to 30)
    checkDiscovery(skewed, 41 to 70)
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

  /** `pattern(seed)` with a label 0/1 on every regular vertex that has none. */
  def labeled(seed: Int): Pattern = {
    val rnd = new Random(-seed)
    val p = pattern(seed)
    p.regularVertices.filter(p.getLabel(_).isEmpty).foldLeft(p)((q, v) => q.addLabel(v, rnd.nextInt(2)))
  }

  /** `pattern(seed)` without labels. */
  def shape(seed: Int): Pattern = pattern(seed).copy(labels = Map.empty)

  /** Every labeling of `p`'s regular vertices with 0/1, up to isomorphism. */
  def labelings(p: Pattern): Seq[Pattern] =
    CanonicalForm.distinct(p.regularVertices.foldLeft(Seq(p)) { (ps, v) =>
      ps.flatMap(q => Seq(q.addLabel(v, 0), q.addLabel(v, 1)))
    })
}
