package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** What one closed-loop window produced.
  *
  * @param scores the first answer per source, when asked to keep them
  */
final case class Window(t0Ns: Long, records: Seq[QueryRecord], scores: Map[Int, Array[Double]]) {
  def passFrac: Double = records.count(_.passed).toDouble / records.size
}

object ClosedLoop {

  /** `clients` threads each send their next query when the last one returns,
    * taking `sources` round-robin, until `seconds` have passed; queries in
    * flight at the deadline finish and are measured. Every answer goes
    * through `check`; a query that throws is a failure.
    */
  def run(clients: Int, sources: Seq[Int], seconds: Double, query: Int => Array[Double],
          check: (Int, Array[Double]) => Option[String], keepScores: Boolean): Window = {
    val next = new AtomicInteger(0)
    val records = new ConcurrentLinkedQueue[QueryRecord]()
    val kept = new ConcurrentHashMap[Int, Array[Double]]()
    val t0 = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    val threads = (0 until clients).map { client =>
      new Thread(() => {
        while (System.nanoTime() < deadline) {
          val src = sources(next.getAndIncrement() % sources.size)
          val start = System.nanoTime()
          val (end, verdict) =
            try {
              val scores = query(src)
              val end = System.nanoTime()
              if (keepScores) kept.putIfAbsent(src, scores)
              (end, check(src, scores))
            } catch {
              case NonFatal(e) => (System.nanoTime(), Some(s"threw ${e.getClass.getName}"))
            }
          records.add(QueryRecord(client, src, start, end, verdict))
        }
      }, s"client-$client")
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    Window(t0, records.asScala.toSeq.sortBy(_.startNs), kept.asScala.toMap)
  }
}
