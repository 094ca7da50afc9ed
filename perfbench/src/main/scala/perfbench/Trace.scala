package perfbench

import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.catalyst.QueryPlanningTracker
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.perfbench.SparkInternals

/** What Spark did on behalf of one query, i.e. one job group. */
final class Tally {
  var jobs, stages, tasks = 0L
  var taskMs, cpuNs, gcMs, shuffleWriteB, shuffleReadB, spillB, peakTaskMemB = 0L
  var mniJobs, mniTaskMs, mniShuffleB, existsJobs, existsTaskMs = 0L
  var sqlQueries, analyzeMs, optimizeMs, physicalMs = 0L
  var joins, rowsJoin, rowsResult = 0L
  /** Wall-clock intervals (ms) during which a job of the group ran. */
  val jobSpans = mutable.ArrayBuffer.empty[(Long, Long)]
}

/** Spark listener that attributes jobs, stages, tasks and SQL executions
  * to the job group the benchmark set around each query, and to a layer by
  * the call site Spark records for the action (`count at MatchEngine.scala:…`).
  *
  * Events arrive asynchronously on the listener bus; `SparkInternals.drain`
  * must run before a query's tally is read.
  */
final class Tracer(setupJoinMetrics: Set[Long]) extends SparkListener {

  private val tallies = mutable.HashMap.empty[String, Tally]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val stageSite = mutable.HashMap.empty[Int, String]
  private val jobStart = mutable.HashMap.empty[Int, (String, Long)]
  private val executionGroup = mutable.HashMap.empty[Long, String]
  private val executionSite = mutable.HashMap.empty[Long, String]
  /** Row metrics of joins already counted; a cached relation is built once
    * and then read by several executions. Starts with the graph's own.
    */
  private val countedJoins = mutable.HashSet.empty[Long] ++ setupJoinMetrics
  private var jobsSeen = 0L

  /** The tally of a job group (empty when nothing ran under it). */
  def tally(group: String): Tally = synchronized(tallies.getOrElseUpdate(group, new Tally))

  /** Jobs that started since the last call, with or without a job group. */
  def takeJobsSeen(): Long = synchronized { val n = jobsSeen; jobsSeen = 0; n }

  /** The layer whose source file appears first (innermost) in a call site. */
  private def layerOf(site: String): String =
    Seq("MniSupport", "Existence", "MatchEngine", "DataGraph")
      .map(l => l -> site.indexOf(s"$l.scala")).filter(_._2 >= 0)
      .minByOption(_._2).map(_._1).getOrElse("other")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobsSeen += 1
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkContextGroup))) match {
      case Some(group) =>
        val t = tallies.getOrElseUpdate(group, new Tally)
        t.jobs += 1
        // Adaptive execution submits shuffle stages from a thread pool, so a
        // stage's own call site is only meaningful outside SQL executions.
        val site = Option(e.properties.getProperty(SqlExecutionId)).flatMap(id => executionSite.get(id.toLong))
          .getOrElse(layerOf(e.stageInfos.maxBy(_.stageId).name))
        if (site == "MniSupport") t.mniJobs += 1
        if (site == "Existence") t.existsJobs += 1
        for (s <- e.stageInfos) { stageGroup(s.stageId) = group; stageSite(s.stageId) = site }
        jobStart(e.jobId) = (group, e.time)
      case None => ()
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for ((group, start) <- jobStart.remove(e.jobId)) tallies(group).jobSpans += ((start, e.time))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    for (group <- stageGroup.get(e.stageInfo.stageId)) tallies(group).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (group <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = tallies(group)
      val shuffleB = m.shuffleWriteMetrics.bytesWritten
      t.tasks += 1
      t.taskMs += m.executorRunTime
      t.cpuNs += m.executorCpuTime
      t.gcMs += m.jvmGCTime
      t.shuffleWriteB += shuffleB
      t.shuffleReadB += m.shuffleReadMetrics.totalBytesRead
      t.spillB += m.diskBytesSpilled
      t.peakTaskMemB = math.max(t.peakTaskMemB, m.peakExecutionMemory)
      stageSite.getOrElse(e.stageId, "other") match {
        case "MniSupport" => t.mniTaskMs += m.executorRunTime; t.mniShuffleB += shuffleB
        case "Existence"  => t.existsTaskMs += m.executorRunTime
        case _            => ()
      }
    }
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case s: SparkListenerSQLExecutionStart =>
      synchronized {
        s.jobGroupId.foreach(g => executionGroup(s.executionId) = g)
        executionSite(s.executionId) = layerOf(s.details)
      }
    case end: SparkListenerSQLExecutionEnd =>
      val group = synchronized {
        executionSite.remove(end.executionId)
        executionGroup.remove(end.executionId)
      }
      for (g <- group) record(tally(g), SparkInternals.queryExecution(end))
    case _ => ()
  }

  private def record(t: Tally, qe: org.apache.spark.sql.execution.QueryExecution): Unit = {
    val phases = qe.tracker.phases
    def ms(phase: String) = phases.get(phase).map(_.durationMs).getOrElse(0L)
    synchronized {
      t.sqlQueries += 1
      t.analyzeMs += ms(QueryPlanningTracker.ANALYSIS)
      t.optimizeMs += ms(QueryPlanningTracker.OPTIMIZATION)
      t.physicalMs += ms(QueryPlanningTracker.PLANNING)
      for (plan <- Tracer.withCachedPlans(qe.executedPlan)) {
        val joins = Tracer.joins(plan)
        val fresh = joins.filter(j => countedJoins.add(Tracer.rowMetricId(j)))
        t.joins += fresh.size
        t.rowsJoin += fresh.map(rowsOut).sum
        // The join nearest the root produces the rows the plan returns or aggregates.
        t.rowsResult += joins.headOption.filter(fresh.contains).map(rowsOut).getOrElse(0L)
      }
    }
  }

  private def rowsOut(p: SparkPlan): Long = p.metrics.get("numOutputRows").map(_.value).getOrElse(0L)

  private val SparkContextGroup = "spark.jobGroup.id"
  private val SqlExecutionId = "spark.sql.execution.id"
}

object Tracer extends AdaptiveSparkPlanHelper {

  /** Join operators of `plan`, root-most first. */
  def joins(plan: SparkPlan): Seq[BaseJoinExec] = collectWithSubqueries(plan) { case j: BaseJoinExec => j }

  def rowMetricId(j: SparkPlan): Long = j.metrics("numOutputRows").id

  /** `plan` and the plans of every cached relation it reads, transitively. */
  def withCachedPlans(plan: SparkPlan): Seq[SparkPlan] =
    plan +: collectWithSubqueries(plan) { case s: InMemoryTableScanExec => s.relation.cachedPlan }
      .flatMap(withCachedPlans)

  /** Row metrics of the joins inside the cached relations of `dfs`. */
  def cachedJoinMetrics(dfs: Seq[DataFrame]): Set[Long] =
    dfs.flatMap(df => withCachedPlans(df.queryExecution.executedPlan).flatMap(joins)).map(rowMetricId).toSet
}
