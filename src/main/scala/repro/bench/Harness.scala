package repro.bench

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession

/** Benchmark harness: wall-clock timing, per-cell time budgets (the
  * reproduction's analogue of the paper's 5-hour timeout '×' marks), and
  * paper-style table printing.
  */
object Harness {

  /** One measured table cell. */
  final case class Cell(value: String, seconds: Option[Double]) {
    def timeStr: String = seconds.map(s => f"$s%.2f").getOrElse(value)
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Run `f` under a wall-clock budget; on timeout cancel the job group
    * (and any job the cell still submits), interrupt the cell's thread, wait
    * for it and for the group's last task to end, and report '×' (like the
    * paper's did-not-finish marker). Any error reports '—' (like the
    * paper's out-of-memory marker).
    */
  def budgeted(spark: SparkSession, label: String, budgetSeconds: Int)(f: => String): Cell = {
    val sc = spark.sparkContext
    val group = s"bench-$label-${System.nanoTime()}"
    val pool = Executors.newSingleThreadExecutor()
    val fut = pool.submit(new Callable[(String, Double)] {
      def call(): (String, Double) = {
        sc.setJobGroup(group, label, interruptOnCancel = true)
        try time(f)
        finally sc.clearJobGroup()
      }
    })
    try {
      val (v, secs) = fut.get(budgetSeconds.toLong, TimeUnit.SECONDS)
      Cell(v, Some(secs))
    } catch {
      case _: TimeoutException =>
        sc.cancelJobGroupAndFutureJobs(group)
        pool.shutdownNow()
        // Spark work ends with its job; only driver code deaf to interrupts outlives this.
        if (!pool.awaitTermination(budgetSeconds.toLong, TimeUnit.SECONDS))
          Console.err.println(s"[bench] $label: cell still running after cancellation")
        while (running(spark, group)) Thread.sleep(50)
        Cell("x", None)
      case e: ExecutionException =>
        Console.err.println(s"[bench] $label failed: ${e.getCause}")
        Cell("-", None)
    } finally {
      pool.shutdownNow()
      ()
    }
  }

  /** Whether a job of `group` is running or has a running task, as the
    * status tracker reports it. A running job counts as busy because the
    * tracker writes a stage's active-task count only every so often until
    * the stage ends; once the job has ended, the count is exact.
    */
  def running(spark: SparkSession, group: String): Boolean = {
    val st = spark.sparkContext.statusTracker
    st.getJobIdsForGroup(group).exists { id =>
      st.getJobInfo(id).exists { job =>
        job.status == JobExecutionStatus.RUNNING ||
        job.stageIds.exists(s => st.getStageInfo(s).exists(_.numActiveTasks > 0))
      }
    }
  }

  def defaultBudget: Int = sys.env.get("REPRO_BENCH_BUDGET").map(_.toInt).getOrElse(240)

  /** Fixed-width table printer (markdown-ish, readable in test logs). */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => if (i < r.size) r(i).length else 0).max)
    def line(r: Seq[String]) =
      "| " + r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString(" | ") + " |"
    val sep = "|" + widths.map(w => "-" * (w + 2)).mkString("|") + "|"
    (s"\n=== $title ===" +: line(header) +: sep +: rows.map(line)).mkString("\n") + "\n"
  }
}
