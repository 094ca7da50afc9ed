package perfbench

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.perfbench.SparkInternals
import repro.graph.DataGraph
import repro.jobs.Jobs

/** One benchmark run: generate the workload's graph from the seed, compute
  * reference answers, set the graph up several times, run one cold pass and
  * then steady passes over the query list for the requested seconds.
  *
  * {{{
  *   perfbench.Main --workload cliques --seed 1 --seconds 10 --trace 0
  * }}}
  *
  * The load is a closed loop: one client thread issues the queries back to
  * back. The last line on stdout is the JSON result; with `--trace 1` it
  * holds the per-layer metrics instead of the end-to-end ones.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3
  /** A query running longer than this is cancelled and counted as failed. */
  val QueryLimitSeconds = 60L

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      System.err.println(s"usage: --workload ${Workloads.all.map(_.name).mkString("|")} --seed N --seconds S --trace 0|1")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"

    val spark = Jobs.session(s"perfbench-${workload.name}")
    val ok =
      try { new Run(spark, workload, seed, seconds, traced).execute(); true }
      catch { case e: Exception => e.printStackTrace(); false }
      finally spark.stop()
    // Exit explicitly: a thread left behind must not keep the JVM alive.
    sys.exit(if (ok) 0 else 1)
  }
}

final class Run(spark: SparkSession, workload: Workload, seed: Long, seconds: Double, traced: Boolean) {
  private val sc = spark.sparkContext
  private val slots = sc.defaultParallelism
  private val client = Executors.newSingleThreadExecutor { (r: Runnable) =>
    val t = new Thread(r, "perfbench-client"); t.setDaemon(true); t
  }
  private var attempted = 0L
  private var failed = 0L
  private val lastResults = mutable.Map.empty[String, Any]

  private def now: Double = System.nanoTime() / 1e9
  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
  private val born = java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime
  private def say(line: String): Unit =
    println(f"[perfbench ${(System.currentTimeMillis() - born) / 1e3}%6.1fs] $line")

  def execute(): Unit = {
    say(s"session ready")
    val input = workload.generate(spark, seed)
    say(s"generated ${input.edges.length} edge draws")
    val queries = workload.queries(spark, input)
    say(s"reference answers: ${queries.map(q => s"${q.name}=${q.expected}").mkString(" ")}")
    val (edgesDf, labelsDf) = input.frames(spark)

    var graph: DataGraph = null
    val setupTimes = (1 to Main.Setups).map { _ =>
      if (graph != null) graph.unpersist()
      val t0 = now
      graph = DataGraph.fromEdges(spark, edgesDf, labelsDf)
      now - t0
    }
    val g = graph
    val cachedMb = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6
    lazy val setupJoins = Tracer.cachedJoinMetrics(Seq(g.edges, g.adj, g.vertices, g.mapping) ++ g.labels)
    say(f"workload=${workload.name} seed=$seed slots=$slots vertices=${g.numVertices} edges=${g.numEdges}")
    say(s"setup_s samples: ${setupTimes.map(t => f"$t%.3f").mkString(" ")}")

    val cold = pass(g, queries, "cold")
    say(f"cold pass ${cold._1}%.3f s: ${cold._2}")

    // Steady passes; traced runs alternate untraced and traced passes so the
    // tracing overhead is measured within the run.
    val plain = mutable.ArrayBuffer.empty[Double]
    val tracedPasses = mutable.ArrayBuffer.empty[PassTrace]
    val start = now
    var i = 0
    def enough = if (traced) plain.nonEmpty && tracedPasses.nonEmpty else plain.size >= 2
    while (now - start < seconds || !enough) {
      i += 1
      if (traced && i % 2 == 0) tracedPasses += tracedPass(g, queries, s"p$i", setupJoins)
      else {
        val (t, detail) = pass(g, queries, s"p$i")
        plain += t
        say(f"pass $i $t%.3f s: $detail")
      }
    }
    client.shutdownNow()

    val passS = median(plain.toSeq)
    say(f"pass_s median $passS%.3f s over n=${plain.size} steady passes (last/first ${plain.last / plain.head}%.3f); cold_pass_s ${cold._1}%.3f s")
    say(f"fail_ratio ${if (attempted == 0) 0.0 else failed.toDouble / attempted}%.4f ratio ($failed failed of $attempted queries)")

    val metrics: Seq[(String, Double, String)] =
      if (!traced) Seq(
        ("setup_s", median(setupTimes), "s"),
        ("pass_s", passS, "s"),
        ("cold_pass_s", cold._1, "s"),
        ("cached_mb", cachedMb, "MB"),
      )
      else {
        val perPass = tracedPasses.toSeq.map(_.values(median(setupTimes), g, slots))
        val overhead = median(tracedPasses.toSeq.map(_.wall)) / passS - 1
        perPass.head.map(_._1).map(n => (n, median(perPass.map(_.toMap.apply(n))), PassTrace.unit(n))) :+
          (("trace.overhead_frac", overhead, "ratio"))
      }
    println(Json.result(failed == 0, attempted, failed, metrics))
  }

  /** Runs every query once; returns the pass wall time and a per-query summary. */
  private def pass(g: DataGraph, queries: Seq[Query], label: String): (Double, String) = {
    val t0 = now
    val seconds = queries.map(q => q.name -> call(g, q, s"$label-${q.name}"))
    (now - t0, seconds.map { case (n, s) => f"$n=$s%.3f" }.mkString(" "))
  }

  /** One query under its own job group, with a time limit that cancels the
    * group and waits for its tasks to end before the next query starts.
    * Checks the answer and returns the query's wall time.
    */
  private def call(g: DataGraph, q: Query, group: String): Double = {
    attempted += 1
    val t0 = now
    val fut = client.submit(new Callable[Any] {
      def call(): Any = {
        sc.setJobGroup(group, q.name, interruptOnCancel = true)
        try q.run(g) finally sc.clearJobGroup()
      }
    })
    val result: Either[String, Any] =
      try Right(fut.get(Main.QueryLimitSeconds, TimeUnit.SECONDS))
      catch {
        case _: TimeoutException =>
          sc.cancelJobGroup(group)
          fut.cancel(true)
          awaitIdle(group)
          Left(s"exceeded ${Main.QueryLimitSeconds} s")
        case e: ExecutionException => Left(String.valueOf(e.getCause))
      }
    val seconds = now - t0
    result match {
      case Right(v) if q.answer(v) == q.expected => lastResults(q.name) = v
      case Right(v) =>
        failed += 1
        say(s"MISMATCH ${q.name}: got ${q.answer(v)}, expected ${q.expected}")
      case Left(err) =>
        failed += 1
        say(s"FAILED ${q.name}: $err")
    }
    seconds
  }

  /** Waits until no job of `group` has a running task. */
  private def awaitIdle(group: String): Unit = {
    val st = sc.statusTracker
    def busy = st.getJobIdsForGroup(group).exists { id =>
      st.getJobInfo(id).exists(_.stageIds.exists(s => st.getStageInfo(s).exists(_.numActiveTasks > 0)))
    }
    while (busy || st.getActiveStageIds.nonEmpty) Thread.sleep(50)
  }

  /** A pass with the tracer attached; the listener bus is drained before
    * and after it, so the pass sees exactly its own events.
    */
  private def tracedPass(g: DataGraph, queries: Seq[Query], label: String, setupJoins: Set[Long]): PassTrace = {
    val tracer = new Tracer(setupJoins)
    sc.addSparkListener(tracer)
    try {
      SparkInternals.drain(sc)
      tracer.takeJobsSeen()
      val startMs = System.currentTimeMillis()
      val t0 = now
      val perQuery = queries.map(q => (q.name, s"$label-${q.name}", call(g, q, s"$label-${q.name}")))
      val wall = now - t0
      val endMs = System.currentTimeMillis()
      SparkInternals.drain(sc)
      val tallies = perQuery.map { case (name, group, _) => name -> tracer.tally(group) }
      val jobsSeen = tracer.takeJobsSeen()
      if (tallies.map(_._2.jobs).sum != jobsSeen)
        throw new IllegalStateException(s"per-query job counts ${tallies.map(_._2.jobs)} do not sum to the pass's $jobsSeen jobs")
      say(f"traced pass $label $wall%.3f s: " + perQuery.map { case (n, _, s) => f"$n=$s%.3f" }.mkString(" "))
      PassTrace(wall, perQuery.map { case (n, _, s) => n -> s }, tallies, workload.layerWork(lastResults.toMap), startMs, endMs)
    } finally sc.removeSparkListener(tracer)
  }
}
