package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core.{DiagEstimator, ExactSim, ExactSimConf, Linearized}
import repro.graph.GraphData
import repro.linalg.{LinEngine, SparkEngine}

import scala.collection.mutable

/** A [[LinEngine]] that times and counts the products of the engine it wraps. */
final class TimingEngine(inner: LinEngine) extends LinEngine {
  def n: Int = inner.n
  var mulPCalls, mulPTCalls = 0
  var mulPNs, mulPTNs, nnzIn = 0L

  def ns: Long = mulPNs + mulPTNs

  private def nnz(x: Array[Double]): Int = x.count(_ != 0.0)

  def mulP(x: Array[Double]): Array[Double] = {
    nnzIn += nnz(x)
    val t = System.nanoTime()
    val y = inner.mulP(x)
    mulPNs += System.nanoTime() - t
    mulPCalls += 1
    y
  }

  def mulPT(x: Array[Double]): Array[Double] = {
    nnzIn += nnz(x)
    val t = System.nanoTime()
    val y = inner.mulPT(x)
    mulPTNs += System.nanoTime() - t
    mulPTCalls += 1
    y
  }
}

/** Spark job and task spans, as a listener on the session reports them.
  * Times are wall-clock milliseconds, the listener's clock.
  */
final class JobRecorder extends SparkListener {
  import JobRecorder.{Job, Task}

  private val open = mutable.Map.empty[Int, Job]
  private val jobs = mutable.ArrayBuffer.empty[Job]
  private val tasks = mutable.ArrayBuffer.empty[Task]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val exec = Option(e.properties).flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
    open(e.jobId) = Job(e.jobId, e.time, -1L, e.stageIds.toSet, exec)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach(j => jobs += j.copy(endMs = e.time))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val i = e.taskInfo
    val m = Option(e.taskMetrics)
    tasks += Task(e.stageId, i.launchTime, i.finishTime, m.map(_.executorRunTime).getOrElse(0L),
      m.map(_.jvmGCTime).getOrElse(0L), !i.successful)
  }

  /** Waits until every event posted so far has been delivered, then returns
    * and forgets the ended jobs and their tasks.
    */
  def drain(spark: SparkSession): (Seq[Job], Seq[Task]) = {
    org.apache.spark.ListenerBusAccess.waitUntilEmpty(spark.sparkContext)
    synchronized {
      val out = (jobs.toList.sortBy(_.startMs), tasks.toList)
      jobs.clear(); tasks.clear()
      out
    }
  }
}

object JobRecorder {
  final case class Job(id: Int, startMs: Long, endMs: Long, stages: Set[Int], execution: Option[String])
  final case class Task(stage: Int, launchMs: Long, finishMs: Long, runMs: Long, gcMs: Long, failed: Boolean)

  /** Job wall time during which no task of that job was running. */
  def idleMs(jobs: Seq[Job], tasks: Seq[Task]): Long =
    jobs.map { j =>
      val spans = tasks.filter(t => j.stages(t.stage))
        .map(t => (math.max(t.launchMs, j.startMs), math.min(t.finishMs, j.endMs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var reach = j.startMs
      spans.foreach { case (a, b) =>
        if (b > reach) { covered += b - math.max(a, reach); reach = b }
      }
      (j.endMs - j.startMs) - covered
    }.sum
}

/** Everything the traced run measures about one query. */
final case class QueryTrace(
    source: Int, scores: Array[Double], ms: Double,
    forwardMs: Double, forwardLinalgMs: Double, backwardMs: Double, backwardLinalgMs: Double,
    mulPCalls: Int, mulPTCalls: Int, mulPMs: Double, mulPTMs: Double, nnzIn: Long,
    hopVectorBytes: Long, piNormSq: Double,
    allocateMs: Double, tasks: Int, plannedPairs: Long, trivialTasks: Int,
    diagMs: Double, phaseAMs: Double, phaseBMs: Double, edges: Long, walkPairs: Long,
    diagTaskRunMs: Long, sparkJobs: Int, sparkTasks: Int, taskFailures: Int, gcMs: Long, idleMs: Long) {
  def matvecCalls: Int = mulPCalls + mulPTCalls
}

/** ExactSim.singleSource rebuilt from its public steps, with a span around
  * each layer. It must give the same scores as the untraced call.
  */
object TracedQuery {

  private def ms(fromNs: Long): Double = (System.nanoTime() - fromNs) / 1e6

  /** Runs one query alone; `recorder` must be listening on the session. */
  def run(graph: GraphData, source: Int, conf: ExactSimConf, recorder: JobRecorder): QueryTrace = {
    val spark = graph.spark
    val csr = graph.csr
    recorder.drain(spark) // forget anything before this query
    val t0 = System.nanoTime()
    // Today's default engine, as ExactSim.singleSource builds it.
    val engine = new TimingEngine(new SparkEngine(graph))

    val tF = System.nanoTime()
    val fwd = Linearized.forward(engine, source, conf.c, conf.iterations, conf.truncationThreshold)
    val forwardMs = ms(tF)
    val forwardLinalgMs = engine.ns / 1e6

    val tA = System.nanoTime()
    val tasks = ExactSim.allocate(fwd.pi, conf.totalSamples(graph.n), conf.piSquared)
    val allocateMs = ms(tA)
    val (fJobs, fTasks) = recorder.drain(spark)

    val bc = spark.sparkContext.broadcast(csr)
    val diagStartWall = System.currentTimeMillis()
    val tD = System.nanoTime()
    val diag = DiagEstimator.localExploit(spark, bc, tasks, conf.c, conf.seed)
    val diagMs = ms(tD)
    val dhat = Array.tabulate(graph.n) { k =>
      diag.dhat.getOrElse(k, DiagEstimator.trivial(csr, k, conf.c).getOrElse(1.0 - conf.c))
    }
    val diagJobs = recorder.drain(spark)

    val linB = engine.ns
    val tB = System.nanoTime()
    val scores = Linearized.backward(engine, fwd, dhat, conf.c)
    val backwardMs = ms(tB)
    val backwardLinalgMs = (engine.ns - linB) / 1e6
    scores(source) = 1.0
    bc.destroy()
    val total = ms(t0)
    val rest = recorder.drain(spark)

    // Phase A is the first SQL execution inside localExploit, phase B the rest.
    val (dJobs, dTasks) = diagJobs
    val phaseAExec = dJobs.headOption.map(_.execution)
    val phaseAEnd = dJobs.filter(j => phaseAExec.contains(j.execution)).map(_.endMs)
      .maxOption.getOrElse(diagStartWall)
    val phaseAMs = math.min(diagMs, (phaseAEnd - diagStartWall).toDouble.max(0.0))
    val jobs = fJobs ++ dJobs ++ rest._1
    val allTasks = fTasks ++ dTasks ++ rest._2
    QueryTrace(
      source, scores, total,
      forwardMs, forwardLinalgMs, backwardMs, backwardLinalgMs,
      engine.mulPCalls, engine.mulPTCalls, engine.mulPNs / 1e6, engine.mulPTNs / 1e6, engine.nnzIn,
      fwd.hopBytes, fwd.piNormSq,
      allocateMs, tasks.size, tasks.map(_._2).sum,
      tasks.count { case (k, _) => DiagEstimator.trivial(csr, k, conf.c).isDefined },
      diagMs, phaseAMs, diagMs - phaseAMs, diag.edgesExplored, diag.walkPairs,
      dTasks.map(_.runMs).sum, jobs.size, allTasks.size, allTasks.count(_.failed),
      allTasks.map(_.gcMs).sum, JobRecorder.idleMs(jobs, allTasks))
  }
}
