package repro.core

import java.util.concurrent.{ConcurrentHashMap, ExecutionException, ExecutorService, Executors}
import java.util.concurrent.atomic.AtomicInteger

import scala.reflect.ClassTag

/** The driver's thread pools for in-process D̂ work: one fixed pool of daemon
  * threads per thread count, shared by every caller that asks for that count,
  * created on first use and never shut down (daemon threads do not keep the
  * JVM alive).
  */
private[core] object DriverPool {

  private val pools = new ConcurrentHashMap[Int, ExecutorService]

  private def pool(threads: Int): ExecutorService =
    pools.computeIfAbsent(threads, (n: Int) =>
      Executors.newFixedThreadPool(n, { (r: Runnable) =>
        val t = new Thread(r, s"d-hat-driver-pool-$n")
        t.setDaemon(true)
        t
      }))

  /** `items.map(f)` on the pool of `threads` threads, in the order of
    * `items`. Each worker takes the next unclaimed item, so a slow item holds
    * back no fixed share of the rest; the first failure stops the workers
    * and is rethrown here.
    */
  def map[A, B: ClassTag](items: IndexedSeq[A], threads: Int)(f: A => B): Array[B] = {
    val out = new Array[B](items.size)
    val next = new AtomicInteger
    val worker: Runnable = () =>
      try {
        var i = next.getAndIncrement()
        while (i < items.size) { out(i) = f(items(i)); i = next.getAndIncrement() }
      } catch { case e: Throwable => next.set(items.size); throw e }
    val n = math.max(1, threads)
    val p = pool(n)
    val running = Seq.fill(math.min(n, items.size))(p.submit(worker, ()))
    try running.foreach(_.get())
    catch { case e: ExecutionException => throw e.getCause }
    out
  }
}
