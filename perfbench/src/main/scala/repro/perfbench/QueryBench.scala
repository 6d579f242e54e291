package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.core.ExactSim
import repro.eval.Harness
import repro.graph.GraphData
import repro.linalg.SparkEngine

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** The ExactSim query benchmark.
  *
  * One run: build the workload's graph several times (set-up), draw the query
  * sources from `--seed`, compute ground truth untimed, warm up, then run
  * `ExactSim.singleSource` with the default engine in a closed loop of the
  * workload's clients for `--seconds`, checking every answer. With
  * `--trace 0` it prints the end-to-end metrics; with `--trace 1` it then
  * reruns each queried source once through [[TracedQuery]] and prints the
  * per-layer metrics. The last stdout line is the result object.
  *
  * Usage: QueryBench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows <file>]
  */
object QueryBench {

  val Master = "local[4]"
  val SetupBuilds = 3     // the first is the cold build; set-up time is the median of the rest
  val WarmupS = 8         // warm-up queries run until this long has passed
  val ReproduceTol = 1e-12

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, rows: Option[String])

  def parseArgs(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1", kv.get("rows"))
  }

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  private def seconds(fromNs: Long): Double = (System.nanoTime() - fromNs) / 1e9

  /** Times of one graph build, split by step (ms). */
  final case class Build(graph: GraphData, generateMs: Double, edgesMs: Double, pEdgesMs: Double, csrMs: Double) {
    def totalS: Double = (generateMs + edgesMs + pEdgesMs + csrMs) / 1000
  }

  /** `Datasets.Spec.generate` → `GraphData.edges` → `pEdges` → `csr`, each timed. */
  def build(w: Workload, spark: SparkSession): Build = {
    def timed[T](f: => T): (T, Double) = { val t = System.nanoTime(); val v = f; (v, (System.nanoTime() - t) / 1e6) }
    val (g, gen) = timed(w.spec.generate(spark))
    val (_, edges) = timed(g.edges)
    val (_, pEdges) = timed(g.pEdges)
    val (_, csr) = timed(g.csr)
    Build(g, gen, edges, pEdges, csr)
  }

  /** Driver heap in use after full collections, in MiB. */
  def retainedHeapMb(): Double = {
    (0 until 3).foreach(_ => System.gc())
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def session(): SparkSession =
    SparkSession.builder()
      .master(Master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val w = Workload.byName(args.workload)
    val spark = session()
    log(f"session ready ${(System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3}%.1f s after JVM start")
    try println(run(spark, w, args))
    finally spark.stop()
  }

  def run(spark: SparkSession, w: Workload, args: Args): String = {
    val tRun = System.nanoTime()
    val settings = Json.obj(
      "workload" -> Json.str(w.name), "dataset" -> Json.str(w.spec.toString),
      "eps" -> Json.num(w.eps), "alpha" -> Json.num(w.alpha), "c" -> Json.num(Harness.C),
      "clients" -> Json.num(w.clients), "source_seed" -> Json.num(args.seed),
      "source_count" -> Json.num(w.sources), "seconds" -> Json.num(args.seconds),
      "spark_master" -> Json.str(spark.sparkContext.master),
      "default_parallelism" -> Json.num(spark.sparkContext.defaultParallelism),
      "driver_heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / (1024 * 1024)),
      "engine" -> Json.str(classOf[SparkEngine].getSimpleName),
      "setup_builds" -> Json.num(SetupBuilds))
    println(Json.obj("settings" -> settings))

    // Set-up: the first build carries Spark and JIT warm-up, so it is not reported.
    val builds = (0 until SetupBuilds).map { i =>
      val b = build(w, spark)
      log(f"build $i: ${b.totalS}%.2f s (edges ${b.edgesMs}%.0f, pEdges ${b.pEdgesMs}%.0f, csr ${b.csrMs}%.0f ms)")
      if (i < SetupBuilds - 1) b.graph.unpersistAll()
      b
    }
    val warm = builds.drop(1)
    val graph = builds.last.graph
    val sources = Harness.querySources(graph, w.sources, args.seed)
    log(s"sources ${sources.map(v => s"$v(deg ${graph.csr.inDeg(v)})").mkString(",")}")

    // Untimed: ground truth, beside warm-up queries (the first query in a JVM
    // runs 2-3x slower than a steady one, and the next few still speed up).
    // The collection after them keeps the ground truth's garbage out of the window.
    val t = System.nanoTime()
    val truthF = Future(w.groundTruth(graph, sources))(ExecutionContext.global)
    var warmups = 0
    while (warmups == 0 || seconds(t) < WarmupS) {
      val src = sources(warmups % sources.size)
      ExactSim.singleSource(graph, src, w.conf(src))
      warmups += 1
    }
    val truth = Await.result(truthF, Duration.Inf)
    System.gc()
    log(f"$warmups warm-up queries and ground truth ${seconds(t)}%.1f s")

    val win = ClosedLoop.run(w.clients, sources, args.seconds,
      src => ExactSim.singleSource(graph, src, w.conf(src)).scores,
      (src, scores) => Checker.verdict(src, scores, truth(src), w.eps), keepScores = args.trace)
    val recs = win.records
    val lat = recs.map(_.ms)
    log(f"window: ${recs.size} queries, src:ms ${recs.map(r => f"${r.source}:${r.ms}%.0f").mkString(" ")}; " +
      f"${recs.count(!_.passed)} failed ${recs.flatMap(_.verdict).distinct.mkString("; ")}")

    val result =
      if (!args.trace) {
        val heap = retainedHeapMb()
        val metrics = Seq(
          Metric("setup_s", Stats.median(warm.map(_.totalS)), "s"),
          Metric("query_p50_ms", Stats.median(lat), "ms"),
          Metric("queries_per_s", Stats.busyWindowThroughput(recs, win.t0Ns), "1/s"),
          Metric("pass_frac", win.passFrac, "fraction"),
          Metric("heap_retained_mb", heap, "MB"))
        Result(recs.size, recs.count(!_.passed), metrics)
      } else traced(spark, w, graph, warm, win, truth, args, settings)
    log(f"run ${seconds(tRun)}%.1f s")
    result.json
  }

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(attempted: Int, failed: Int, metrics: Seq[Metric]) {
    def json: String = Json.obj(
      "correct" -> Json.bool(failed == 0),
      "attempted" -> Json.num(attempted),
      "failed" -> Json.num(failed),
      "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj(
        "value" -> Json.num(m.value), "unit" -> Json.str(m.unit))): _*))
  }

  /** The per-layer run: every source the window queried, once more through
    * [[TracedQuery]] on one client. The traced scores must equal the
    * window's to 1e-12; with several clients in the window this is also the
    * check that parallelism does not change results.
    */
  def traced(spark: SparkSession, w: Workload, graph: GraphData, warm: Seq[Build],
             win: Window, truth: Map[Int, Array[Double]], args: Args, settings: String): Result = {
    val recorder = new JobRecorder
    spark.sparkContext.addSparkListener(recorder)
    val cores = spark.sparkContext.defaultParallelism
    val srcs = win.records.map(_.source).distinct.filter(win.scores.contains)
    val rowsOut = args.rows.map(p => new java.io.PrintWriter(p, "UTF-8"))
    rowsOut.foreach(_.println(Json.obj("settings" -> settings)))
    // Tracing overhead compares each traced query with an untraced one of the
    // same source run just before it on one client, so warm-up drift and
    // the window's clients do not enter the comparison.
    val traces = srcs.map { src =>
      val t = System.nanoTime()
      ExactSim.singleSource(graph, src, w.conf(src))
      val plainMs = (System.nanoTime() - t) / 1e6
      val tr = TracedQuery.run(graph, src, w.conf(src), recorder)
      val diff = Checker.maxDiff(tr.scores, win.scores(src))
      val maxErr = Checker.maxDiff(tr.scores, truth(src))
      val verdict = Checker.verdict(src, tr.scores, truth(src), w.eps)
        .orElse(if (diff <= ReproduceTol) None else Some(f"traced scores differ by $diff%.3e"))
      val row = Json.obj("row" -> Json.obj(
        "workload" -> Json.str(w.name), "source" -> Json.num(src), "ms" -> Json.num(tr.ms),
        "matvec_calls" -> Json.num(tr.matvecCalls), "linalg_ms" -> Json.num(tr.mulPMs + tr.mulPTMs),
        "walk_pairs" -> Json.num(tr.walkPairs), "edges" -> Json.num(tr.edges),
        "diag_ms" -> Json.num(tr.diagMs), "pi_norm_sq" -> Json.num(tr.piNormSq),
        "max_error" -> Json.num(maxErr), "untraced_diff" -> Json.num(diff),
        "pass" -> Json.bool(verdict.isEmpty),
        "why" -> Json.str(verdict.getOrElse(""))))
      println(row)
      rowsOut.foreach(_.println(row))
      log(f"traced $src: ${tr.ms}%.0f ms, diff $diff%.1e, ${verdict.getOrElse("pass")}")
      (tr, verdict, plainMs)
    }
    rowsOut.foreach(_.close())
    spark.sparkContext.removeSparkListener(recorder)

    val ts = traces.map(_._1)
    // A source whose traced scores failed fails every window query of it too.
    val badSources = traces.collect { case (tr, Some(_), _) => tr.source }.toSet
    val windowFailed = win.records.count(r => !r.passed || badSources(r.source))
    def mean(f: QueryTrace => Double): Double = ts.map(f).sum / ts.size
    val matvecs = mean(_.matvecCalls)
    val linalgMs = mean(t => t.mulPMs + t.mulPTMs)
    val metrics = Seq(
      Metric("graph.generate_ms", Stats.median(warm.map(_.generateMs)), "ms"),
      Metric("graph.edges_ms", Stats.median(warm.map(_.edgesMs)), "ms"),
      Metric("graph.pedges_ms", Stats.median(warm.map(_.pEdgesMs)), "ms"),
      Metric("graph.csr_ms", Stats.median(warm.map(_.csrMs)), "ms"),
      Metric("graph.m", graph.csr.m, "count"),
      Metric("linalg.matvec_calls", matvecs, "count"),
      Metric("linalg.mulP_ms", mean(_.mulPMs), "ms"),
      Metric("linalg.mulPT_ms", mean(_.mulPTMs), "ms"),
      Metric("linalg.ms_per_matvec", if (matvecs > 0) linalgMs / matvecs else 0.0, "ms"),
      Metric("linalg.nnz_in", mean(_.nnzIn.toDouble), "count"),
      Metric("linalg.share", linalgMs / mean(_.ms), "fraction"),
      Metric("forward.self_ms", mean(t => t.forwardMs - t.forwardLinalgMs), "ms"),
      Metric("backward.self_ms", mean(t => t.backwardMs - t.backwardLinalgMs), "ms"),
      Metric("forward.hop_vector_bytes", mean(_.hopVectorBytes.toDouble), "bytes"),
      Metric("forward.pi_norm_sq", mean(_.piNormSq), "1"),
      Metric("allocate.ms", mean(_.allocateMs), "ms"),
      Metric("allocate.tasks", mean(_.tasks), "count"),
      Metric("allocate.planned_pairs", mean(_.plannedPairs.toDouble), "count"),
      Metric("diag.ms", mean(_.diagMs), "ms"),
      Metric("diag.phaseA_ms", mean(_.phaseAMs), "ms"),
      Metric("diag.phaseA_edges", mean(_.edges.toDouble), "count"),
      Metric("diag.phaseA_edges_per_s", Stats.perSecond(mean(_.edges.toDouble), mean(_.phaseAMs)), "1/s"),
      Metric("diag.phaseB_ms", mean(_.phaseBMs), "ms"),
      Metric("diag.walk_pairs", mean(_.walkPairs.toDouble), "count"),
      Metric("diag.phaseB_pairs_per_s", Stats.perSecond(mean(_.walkPairs.toDouble), mean(_.phaseBMs)), "1/s"),
      Metric("diag.trivial_frac", mean(t => if (t.tasks > 0) t.trivialTasks.toDouble / t.tasks else 0.0), "fraction"),
      Metric("diag.busy_frac", mean(t => if (t.diagMs > 0) t.diagTaskRunMs / (t.diagMs * cores) else 0.0), "fraction"),
      Metric("spark.jobs", mean(_.sparkJobs), "count"),
      Metric("spark.tasks", mean(_.sparkTasks), "count"),
      Metric("spark.task_failures", mean(_.taskFailures), "count"),
      Metric("spark.gc_ms", mean(_.gcMs.toDouble), "ms"),
      Metric("spark.idle_ms", mean(_.idleMs.toDouble), "ms"),
      Metric("trace.overhead_frac", Stats.median(ts.map(_.ms)) / Stats.median(traces.map(_._3)) - 1, "fraction"),
      Metric("drift.latency_ratio", Stats.drift(win.records), "ratio"),
    )
    Result(win.records.size + ts.size, windowFailed + badSources.size, metrics)
  }
}
