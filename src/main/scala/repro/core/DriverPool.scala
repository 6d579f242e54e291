package repro.core

import java.util.concurrent.{CompletableFuture, ConcurrentHashMap, ConcurrentLinkedQueue, ExecutionException,
  ExecutorService, Executors}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.SparkContext

/** The driver's thread pools for D̂ work: one fixed pool of daemon threads
  * per thread count, shared by every caller that asks for that count,
  * created on first use and never shut down (daemon threads do not keep the
  * JVM alive). A call ([[run]]) is one pass over root tasks that may queue
  * follow-up jobs, worked by the caller and pool threads together.
  */
private[repro] object DriverPool {

  private val pools = new ConcurrentHashMap[Int, ExecutorService]

  private val dispatched = new AtomicLong

  /** Calls of [[run]] that had work to dispatch, so far (tests). */
  def passes: Long = dispatched.get

  private def pool(threads: Int): ExecutorService =
    pools.computeIfAbsent(threads, (n: Int) =>
      Executors.newFixedThreadPool(n, { (r: Runnable) =>
        val t = new Thread(r, s"d-hat-driver-pool-$n")
        t.setDaemon(true)
        t
      }))

  /** The thread count of a D̂ on `sc`: `defaultParallelism`, capped at the
    * driver's processors. On a local master `defaultParallelism` is the
    * master's thread count (4 on `local[4]`); on a cluster it counts
    * executor cores, which the driver does not have.
    */
  def size(sc: SparkContext): Int = math.min(sc.defaultParallelism, Runtime.getRuntime.availableProcessors)

  /** A root task: runs, then returns the follow-up jobs it queues. */
  type Root = () => Seq[() => Unit]

  /** Runs every root and every job the roots queue with `threads` workers:
    * the calling thread and up to `threads − 1` threads of the shared pool of
    * that size. Returns once all are done. A worker claims the next root in
    * the order of `roots` while any is left, and takes a queued job
    * otherwise, so the roots put first start first (the caller takes the
    * first one at once) and the jobs fill the threads the roots leave idle.
    * A pool worker that finds nothing to do returns its thread to the pool,
    * and the caller waits; a root that queues jobs starts more pool workers,
    * up to `threads` in all. Nobody spins. The first failure stops the
    * workers and is rethrown here. An empty `roots` dispatches nothing.
    */
  def run(roots: IndexedSeq[Root], threads: Int): Unit =
    if (roots.nonEmpty) {
      dispatched.incrementAndGet()
      val pass = new Pass(roots, math.max(1, threads))
      pass.spawn(math.min(pass.threads, roots.size) - 1)
      pass.run()
      try pass.done.get()
      catch { case e: ExecutionException => throw e.getCause }
    }

  /** One call of [[run]]: the shared root counter, job queue and count of
    * unfinished roots and jobs. Every pool worker runs this same `Runnable`;
    * the caller is a worker from the start.
    */
  private final class Pass(roots: IndexedSeq[Root], val threads: Int) extends Runnable {
    private val nextRoot = new AtomicInteger
    private val queue = new ConcurrentLinkedQueue[() => Unit]
    private val unfinished = new AtomicLong(roots.size)
    private val active = new AtomicInteger(1) // the caller
    val done = new CompletableFuture[Unit]

    /** Starts up to `k` more pool workers, while fewer than `threads` are active. */
    def spawn(k: Int): Unit = {
      var left = k
      while (left > 0) {
        val a = active.get
        if (a >= threads) return
        if (active.compareAndSet(a, a + 1)) { pool(threads).execute(this); left -= 1 }
      }
    }

    private def finished(): Unit = if (unfinished.decrementAndGet() == 0) done.complete(())

    private def claimRoot(): Int =
      if (nextRoot.get >= roots.size) -1
      else { val r = nextRoot.getAndIncrement(); if (r < roots.size) r else -1 }

    /** Runs roots, then jobs, until there are none or the pass failed. */
    def run(): Unit = {
      try {
        var idle = false
        while (!idle && !done.isDone) {
          val r = claimRoot()
          if (r >= 0) {
            val jobs = roots(r)()
            if (jobs.nonEmpty) {
              unfinished.addAndGet(jobs.size.toLong)
              jobs.foreach(queue.add)
              spawn(jobs.size - 1)
            }
            finished()
          } else {
            val job = queue.poll()
            if (job == null) idle = true
            else { job(); finished() }
          }
        }
      } catch { case e: Throwable => done.completeExceptionally(e) }
      active.decrementAndGet()
      // A root may have queued jobs after the poll above while this worker
      // still counted as active, so its spawn stopped short: take over.
      if (!queue.isEmpty && !done.isDone) spawn(1)
    }
  }
}
