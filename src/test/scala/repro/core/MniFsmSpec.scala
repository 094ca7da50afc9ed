package repro.core

import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.apps.Fsm
import repro.pattern.{CanonicalForm, Pattern, Patterns}

/** MNI support (§2.1/§5.5) and FSM with dynamic label discovery (§3.2.1),
  * verified against the local brute-force reference.
  */
class MniFsmSpec extends SparkSpec {

  private val nV = 30
  private lazy val edges = TestGraphs.er(nV, 70, seed = 41)
  private lazy val labels = TestGraphs.labels(nV, 3, seed = 42)
  private lazy val g = TestGraphs.dataGraph(spark, edges, labels)
  private lazy val ref = LocalRef.graph(edges, labels)

  /** All fully-labeled variants of `shape` over labels 0..2 (reference). */
  private def labeledVariants(shape: Pattern): Seq[Pattern] = {
    val reg = shape.regularVertices
    def assign(p: Pattern, rest: List[Int]): Seq[Pattern] = rest match {
      case Nil => Seq(p)
      case v :: tail => (0 until 3).flatMap(l => assign(p.addLabel(v, l), tail))
    }
    CanonicalForm.distinct(assign(shape, reg.toList))
  }

  test("support of fully labeled edges matches brute-force MNI") {
    for (p <- labeledVariants(Patterns.generateChain(2))) {
      assert(MniSupport.support(g, p) == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("support of labeled wedges matches brute-force MNI") {
    for (p <- labeledVariants(Patterns.generateChain(3)).take(10)) {
      assert(MniSupport.support(g, p) == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("support of the unlabeled triangle uses orbit-merged domains") {
    val p = Patterns.generateClique(3)
    val unlabeled = TestGraphs.dataGraph(spark, edges)
    assert(MniSupport.support(unlabeled, p) == LocalRef.mniSupport(p, LocalRef.graph(edges)))
  }

  test("labeledSupports discovers exactly the labeled patterns present") {
    val shape = Patterns.generateChain(2)
    val discovered = MniSupport.labeledSupports(g, shape)
    val expected = labeledVariants(shape)
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
      .filter(_._2 > 0)
      .toMap
    val got = discovered.map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
    assert(got == expected)
  }

  test("labeledSupports on wedges matches brute force") {
    val shape = Patterns.generateChain(3)
    val got = MniSupport.labeledSupports(g, shape)
      .map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
    val expected = labeledVariants(shape)
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
      .filter(_._2 > 0)
      .toMap
    assert(got == expected)
  }

  test("labeledSupports respects pre-assigned labels") {
    val shape = Patterns.generateChain(3).addLabel(2, 1) // center fixed to label 1
    val got = MniSupport.labeledSupports(g, shape)
    assert(got.nonEmpty)
    for ((p, s) <- got) {
      assert(p.fullyLabeled)
      assert(s == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("FSM frequent 1-edge patterns match brute force at several thresholds") {
    for (tau <- Seq(1L, 3L, 6L, 10L)) {
      val result = Fsm.run(spark, g, maxEdges = 1, threshold = tau)
      val got = result.atSize(1).map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
      val expected = labeledVariants(Patterns.generateChain(2))
        .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
        .filter(_._2 >= tau)
        .toMap
      assert(got == expected, s"threshold $tau")
    }
  }

  test("FSM 2-edge frequent patterns match brute force") {
    val tau = 4L
    val result = Fsm.run(spark, g, maxEdges = 2, threshold = tau)
    val got = result.atSize(2).map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
    val expected = labeledVariants(Patterns.generateChain(3))
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
      .filter(_._2 >= tau)
      .toMap
    assert(got == expected)
  }

  test("FSM anti-monotonicity: higher threshold yields a subset") {
    val lo = Fsm.run(spark, g, maxEdges = 2, threshold = 2)
    val hi = Fsm.run(spark, g, maxEdges = 2, threshold = 5)
    for (e <- 1 to 2) {
      val loKeys = lo.atSize(e).map(p => CanonicalForm.key(p._1)).toSet
      val hiKeys = hi.atSize(e).map(p => CanonicalForm.key(p._1)).toSet
      assert(hiKeys.subsetOf(loKeys))
    }
  }

  test("FSM without symmetry breaking finds the same frequent patterns") {
    val a = Fsm.run(spark, g, maxEdges = 2, threshold = 4, symmetry = true)
    val b = Fsm.run(spark, g, maxEdges = 2, threshold = 4, symmetry = false)
    for (e <- 1 to 2)
      assert(
        a.atSize(e).map { case (p, s) => (CanonicalForm.key(p), s) }.toSet ==
        b.atSize(e).map { case (p, s) => (CanonicalForm.key(p), s) }.toSet
      )
  }

  test("FSM 3-edge run completes and respects anti-monotone containment") {
    val result = Fsm.run(spark, g, maxEdges = 3, threshold = 3)
    // every frequent 3-edge pattern has a frequent 2-edge labeled subpattern
    val freq2 = result.atSize(2).map(p => CanonicalForm.key(p._1)).toSet
    for ((p, _) <- result.atSize(3)) {
      val subKeys = p.edges.map { case (u, v) =>
        val sub = p.removeEdge(u, v)
        val kept = sub.vertices.filter(x => sub.degree(x) > 0)
        CanonicalForm.key(sub.inducedSubgraph(kept.toSet))
      }
      assert(subKeys.exists(freq2), s"no frequent sub-pattern for $p")
    }
  }

  test("FSM requires a labeled graph") {
    val unlabeled = TestGraphs.dataGraph(spark, edges)
    assertThrows[IllegalArgumentException](Fsm.run(spark, unlabeled, 2, 1))
  }
}
