package perfbench

import repro.graph.DataGraph

/** What one traced pass measured: wall time, per-query wall times and
  * listener tallies, and the replayed pattern/plan work.
  */
final case class PassTrace(
    wall: Double,
    querySeconds: Seq[(String, Double)],
    tallies: Seq[(String, Tally)],
    layers: LayerWork,
    startMs: Long,
    endMs: Long
) {
  private def sum(f: Tally => Long): Long = tallies.map(t => f(t._2)).sum

  /** Milliseconds of the pass during which at least one Spark job ran. */
  private def jobBusyMs: Long = {
    val spans = tallies.flatMap(_._2.jobSpans)
      .map { case (s, e) => (math.max(s, startMs), math.min(e, endMs)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var busy = 0L
    var (curS, curE) = (Long.MinValue, Long.MinValue)
    for ((s, e) <- spans) {
      if (s > curE) { if (curE > curS) busy += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) busy += curE - curS
    busy
  }

  /** Per-layer values of this pass, by metric name. */
  def values(setupS: Double, g: DataGraph, slots: Int): Seq[(String, Double)] = {
    val mb = 1e6
    val rowsJoin = sum(_.rowsJoin)
    val rowsResult = sum(_.rowsResult)
    val taskS = sum(_.taskMs) / 1e3
    Seq(
      "graph.build_s" -> setupS,
      "graph.vertices" -> g.numVertices.toDouble,
      "graph.edges" -> g.numEdges.toDouble,
      "pattern.s" -> layers.patternS,
      "pattern.candidates" -> layers.candidates.toDouble,
      "pattern.shapes" -> layers.shapes.toDouble,
      "plan.s" -> layers.planS,
      "plan.matching_orders" -> layers.matchingOrders.toDouble,
      "engine.queries" -> sum(_.sqlQueries).toDouble,
      "engine.analyze_s" -> sum(_.analyzeMs) / 1e3,
      "engine.optimize_s" -> sum(_.optimizeMs) / 1e3,
      "engine.physical_s" -> sum(_.physicalMs) / 1e3,
      "engine.joins" -> sum(_.joins).toDouble,
      "engine.rows_join" -> rowsJoin.toDouble,
      "engine.rows_result" -> rowsResult.toDouble,
      "engine.explore_ratio" -> (if (rowsJoin == 0) 0.0 else rowsResult.toDouble / rowsJoin),
      "exec.jobs" -> sum(_.jobs).toDouble,
      "exec.stages" -> sum(_.stages).toDouble,
      "exec.tasks" -> sum(_.tasks).toDouble,
      "exec.task_s" -> taskS,
      "exec.cpu_s" -> sum(_.cpuNs) / 1e9,
      "exec.gc_s" -> sum(_.gcMs) / 1e3,
      "exec.shuffle_write_mb" -> sum(_.shuffleWriteB) / mb,
      "exec.shuffle_read_mb" -> sum(_.shuffleReadB) / mb,
      "exec.spill_mb" -> sum(_.spillB) / mb,
      "exec.peak_task_mem_mb" -> tallies.map(_._2.peakTaskMemB).maxOption.getOrElse(0L) / mb,
      "exec.core_busy_frac" -> taskS / (wall * slots),
      "exec.driver_s" -> math.max(0.0, wall - jobBusyMs / 1e3),
      "mni.jobs" -> sum(_.mniJobs).toDouble,
      "mni.task_s" -> sum(_.mniTaskMs) / 1e3,
      "mni.shuffle_mb" -> sum(_.mniShuffleB) / mb,
      "exists.jobs" -> sum(_.existsJobs).toDouble,
      "exists.task_s" -> sum(_.existsTaskMs) / 1e3,
    ) ++ PassTrace.queryNames.map(q => s"q.$q.s" -> querySeconds.toMap.getOrElse(q, 0.0))
  }
}

object PassTrace {

  /** Every query of every workload; a traced run reports each, 0 where its
    * workload does not run it.
    */
  val queryNames: Seq[String] = Seq("clique3", "exists3", "fsm")

  /** Units of the per-layer metrics. */
  def unit(name: String): String =
    if (name.endsWith("_s") || name.endsWith(".s")) "s"
    else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_frac") || name.endsWith("_ratio")) "ratio"
    else "count"
}
