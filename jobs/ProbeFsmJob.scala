package repro.jobs

import repro.bench.LiteData
import repro.core.MniSupport
import repro.pattern.Patterns

/** Diagnostic: print the labeled 1-edge support distribution of the labeled
  * lite graphs, used to choose the FSM threshold sweeps recorded in
  * EXPERIMENTS.md.
  */
object ProbeFsmJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("probe-fsm")
    try {
      val d = new LiteData(spark)
      for ((name, g) <- Seq("MI" -> d.mi, "PA-L" -> d.paL)) {
        val sup = MniSupport.labeledSupports(g, Patterns.generateChain(2))
          .map(_._2).sorted.reverse
        println(s"[$name] labeled-edge supports: n=${sup.size} " +
          s"top=${sup.take(12).mkString(",")} " +
          s"p50=${sup(sup.size / 2)} p90=${sup((sup.size * 9) / 10)}")
      }
    } finally spark.stop()
  }
}
