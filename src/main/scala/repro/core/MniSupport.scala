package repro.core

import java.util.Arrays
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.roaringbitmap.RoaringBitmap
import repro.graph.{Csr, DataGraph}
import repro.pattern.{Automorphism, CanonicalForm, Pattern}
import repro.plan.Planner

/** Minimum node image (MNI) support computation (§2.1, §3.2.1, §5.5).
  *
  * Peregrine maintains per-pattern ''domains'' — for each pattern vertex,
  * the set of data vertices matched to it — and defines support as the
  * minimum domain size. As in Peregrine, domains are Roaring bitmaps filled
  * on the fly (§5.4): each task of `MatchEngine.foldMatches` adds every
  * match it finds to its own domains, and no match is ever listed; the
  * driver ORs the tasks' domains and takes the minimum. One Spark job runs
  * per pattern.
  *
  * Subtlety (paper §6.6): with symmetry breaking, each unique subgraph is
  * matched once, in its canonical orientation only, while MNI is defined
  * over ''all'' isomorphisms. Since every isomorphism is a canonical match
  * composed with a pattern automorphism, the exact domains are recovered by
  * merging raw domains across each automorphism orbit of the (labeled)
  * pattern before taking the minimum. Without symmetry breaking (PRG-U)
  * every automorphic image is matched, and the merge changes nothing.
  */
object MniSupport {

  /** MNI support of the fully-labeled (or unlabeled) pattern `p` in `g`. */
  def support(g: DataGraph, p: Pattern, symmetry: Boolean = true): Long = {
    val identity = Array(p.regularVertices.indices.toArray)
    domains(g, p, symmetry, discover = false, identity).values.headOption.fold(0L)(orbitMin(p, _))
  }

  /** Dynamic label discovery (§3.2.1): matches the partially-labeled
    * pattern `p` in the labeled graph `g`, groups the matches by the
    * canonicalized fully-labeled pattern they instantiate, and computes
    * each labeled pattern's MNI support.
    *
    * Returns (fully-labeled pattern, support) pairs. Canonicalization uses
    * the automorphisms of `p` (wildcards permute only among wildcards), so
    * e.g. the A–B and B–A labelings of a symmetric edge collapse into one
    * labeled pattern; domains are then orbit-merged under the labeled
    * pattern's own automorphisms, as in `support`.
    */
  def labeledSupports(g: DataGraph, p: Pattern, symmetry: Boolean = true): Seq[(Pattern, Long)] = {
    require(g.labels.isDefined, "label discovery requires a labeled graph")
    val reg = p.regularVertices
    // Position permutations: for automorphism σ, perm(j) = index of σ(reg(j)).
    val idx = reg.zipWithIndex.toMap
    val perms = Automorphism.all(p).map(sigma => reg.map(x => idx(sigma(x))).toArray).toArray
    domains(g, p, symmetry, discover = true, perms).toSeq.map { case (key, ds) =>
      val labeled = reg.zip(key).foldLeft(p) { case (acc, (v, l)) => acc.addLabel(v, l.toInt) }
      (CanonicalForm.canonicalize(labeled)._1, orbitMin(labeled, ds))
    }
  }

  /** The domains of every label tuple the matches of `p` instantiate, in
    * regular-vertex order, keyed by the tuple that is least under `perms`:
    * one Spark job, its tasks' domains ORed on the driver.
    */
  private def domains(
      g: DataGraph,
      p: Pattern,
      symmetry: Boolean,
      discover: Boolean,
      perms: Array[Array[Int]]
  ): Map[Seq[Long], Array[RoaringBitmap]] = {
    val plan = Planner.plan(p)
    val reg = p.regularVertices
    val depth = plan.joinOrder.zipWithIndex.toMap
    val depths = reg.map(depth).toArray
    val fixed = reg.map(v => p.getLabel(v).fold(Csr.NoLabel)(_.toLong)).toArray
    val parts = MatchEngine
      .foldMatches(g, plan, symmetry, discover)(() => new Domains(perms, depths, fixed)) { (d, m, labels) =>
        d.add(m, labels)
      }
      .collect()
    val merged = mutable.HashMap.empty[Seq[Long], Array[RoaringBitmap]]
    for (d <- parts; (key, ds) <- d.byKey.asScala) merged.get(key.labels.toSeq) match {
      case Some(acc) => for (j <- acc.indices) acc(j).or(ds(j))
      case None      => merged(key.labels.toSeq) = ds
    }
    merged.toMap
  }

  /** Support from position domains: the smallest union over an orbit of
    * `p`'s automorphisms.
    */
  private def orbitMin(p: Pattern, ds: Array[RoaringBitmap]): Long = {
    val reg = p.regularVertices
    Automorphism
      .orbitsOf(reg, Automorphism.all(p))
      .map(orbit => RoaringBitmap.or(orbit.iterator.map(v => ds(reg.indexOf(v))).asJava).getLongCardinality)
      .min
  }

  /** A label tuple as a hash key. */
  private final class Key(val labels: Array[Long]) extends Serializable {
    override def hashCode: Int = Arrays.hashCode(labels)
    override def equals(o: Any): Boolean = o match {
      case k: Key => Arrays.equals(labels, k.labels)
      case _      => false
    }
  }

  /** One task's domains. Position `j` is the regular vertex `reg(j)`, bound
    * at depth `depths(j)`, with label `fixed(j)` or, if that is
    * `Csr.NoLabel`, the label discovered there. Each match is keyed by its
    * label tuple permuted by the first permutation that makes it least.
    */
  private final class Domains(perms: Array[Array[Int]], depths: Array[Int], fixed: Array[Long])
      extends Serializable {
    val byKey = new java.util.HashMap[Key, Array[RoaringBitmap]]()
    private val k = depths.length
    private val tuple = new Array[Long](k)
    private val probe = new Key(new Array[Long](k))

    def add(m: Array[Int], labels: Array[Long]): Unit = {
      var j = 0
      while (j < k) {
        tuple(j) = if (fixed(j) != Csr.NoLabel) fixed(j) else labels(depths(j))
        j += 1
      }
      var best = perms(0)
      var q = 1
      while (q < perms.length) { if (less(perms(q), best)) best = perms(q); q += 1 }
      j = 0
      while (j < k) { probe.labels(j) = tuple(best(j)); j += 1 }
      var ds = byKey.get(probe)
      if (ds == null) {
        ds = Array.fill(k)(new RoaringBitmap)
        byKey.put(new Key(probe.labels.clone()), ds)
      }
      j = 0
      while (j < k) { ds(j).add(m(depths(best(j)))); j += 1 }
    }

    /** Whether `tuple` permuted by `a` is lexicographically below it permuted by `b`. */
    private def less(a: Array[Int], b: Array[Int]): Boolean = {
      var j = 0
      while (j < k) {
        val x = tuple(a(j))
        val y = tuple(b(j))
        if (x != y) return x < y
        j += 1
      }
      false
    }
  }
}
