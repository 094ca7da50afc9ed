package repro.core

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import scala.util.Try
import repro.{SparkSpec, TestGraphs}
import repro.bench.Harness
import repro.pattern.Pattern

/** A cancelled job group stops the engine's search: both the row path and
  * the aggregating fold check for a kill once per root, and a timed-out
  * bench cell waits for its thread and tasks to end.
  *
  * The workload is PRG-U (no symmetry breaking) 4-star listing on a dense
  * random graph: about n·d³ ≈ 3·10⁹ matches, minutes of work on a few
  * cores, but about 3·10⁶ per root, so each root takes well under a second.
  */
class CancellationSpec extends SparkSpec {

  private lazy val g = TestGraphs.dataGraph(spark, TestGraphs.er(1000, 75000, seed = 95))
  private val star4 = Pattern.fromEdges((1, 2), (1, 3), (1, 4))

  private def st = spark.sparkContext.statusTracker

  private def within(seconds: Int)(cond: => Boolean): Boolean = {
    val deadline = System.nanoTime() + seconds * 1000000000L
    while (!cond && System.nanoTime() < deadline) Thread.sleep(50)
    cond
  }

  /** Starts `work` in a job group, cancels the group once its job runs and
    * checks that they all end within a few seconds.
    */
  private def cancelStops(group: String)(work: => Any): Unit = {
    g.csr // collect the CSR outside the group
    val sc = spark.sparkContext
    val run = Future {
      sc.setJobGroup(group, "cancellation test", interruptOnCancel = false)
      try work
      finally sc.clearJobGroup()
    }
    assert(within(60)(Harness.running(spark, group)), "the job never started")
    Thread.sleep(1000)
    assert(!run.isCompleted, "the job finished before it could be cancelled")
    sc.cancelJobGroup(group)
    assert(
      within(10)(!Harness.running(spark, group) && st.getActiveStageIds().isEmpty),
      "tasks still run 10 s after cancellation")
    assert(Try(Await.result(run, 10.seconds)).isFailure)
  }

  test("cancelling a job group stops the row search") {
    cancelStops("cancel-rows")(MatchEngine.matches(g, star4, symmetry = false).count())
  }

  test("cancelling a job group stops the aggregating search") {
    cancelStops("cancel-fold")(MniSupport.support(g, star4, symmetry = false))
  }

  test("a timed-out bench cell leaves no task running") {
    g.csr
    @volatile var cellThread: Thread = null
    val cell = Harness.budgeted(spark, "cancel-cell", budgetSeconds = 2) {
      cellThread = Thread.currentThread()
      MatchEngine.matches(g, star4, symmetry = false).count().toString
    }
    assert(cell.value == "x")
    assert(!cellThread.isAlive)
    assert(st.getExecutorInfos.map(_.numRunningTasks).sum == 0)
  }
}
