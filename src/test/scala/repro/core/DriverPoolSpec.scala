package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable

class DriverPoolSpec extends AnyFunSuite {

  test("on one thread the roots run in order, then their jobs, first queued first") {
    val log = mutable.ArrayBuffer.empty[String]
    val roots: IndexedSeq[DriverPool.Root] =
      (0 until 3).map(r => () => { log += s"r$r"; (0 until 2).map(j => () => { log += s"j$r.$j"; () }) })
    DriverPool.run(roots, 1)
    assert(log == Seq("r0", "r1", "r2", "j0.0", "j0.1", "j1.0", "j1.1", "j2.0", "j2.1"))
  }

  test("every root and every job runs exactly once, on any thread count") {
    for (threads <- Seq(1, 2, 3, 4, 8)) {
      val rootRuns = new AtomicIntegerArray(200)
      val jobRuns = new AtomicIntegerArray(200 * 5)
      val roots: IndexedSeq[DriverPool.Root] = (0 until 200).map { r => () =>
        rootRuns.incrementAndGet(r)
        (0 until r % 6).map(j => () => { jobRuns.incrementAndGet(r * 5 + j); () })
      }
      DriverPool.run(roots, threads)
      assert((0 until 200).forall(rootRuns.get(_) == 1), s"$threads threads: a root ran twice or never")
      assert((0 until 1000).forall(i => jobRuns.get(i) == (if (i % 5 < (i / 5) % 6) 1 else 0)),
        s"$threads threads: a job ran twice or never")
    }
  }

  test("a failure in a root or a job stops the pass, is rethrown with its cause, and the pool stays usable") {
    for (inJob <- Seq(false, true)) {
      val boom = new IllegalStateException("boom", new ArithmeticException("the cause"))
      val ran = new AtomicInteger
      def slow(): Unit = { ran.incrementAndGet(); Thread.sleep(1) }
      val roots: IndexedSeq[DriverPool.Root] =
        if (inJob) IndexedSeq(() => (() => throw boom) +: Seq.fill(1000)(() => slow()))
        else (() => throw boom) +: IndexedSeq.fill(1000)(() => { slow(); Nil })
      val e = intercept[IllegalStateException](DriverPool.run(roots, 4))
      assert((e eq boom) && e.getCause.getMessage == "the cause", e.toString)
      assert(ran.get < 1000, s"inJob=$inJob: the pass ran on after the failure")
      val out = new Array[Int](100)
      DriverPool.run((0 until 100).map(i => () => { out(i) = i * 2; Nil }), 4)
      assert(out.toSeq == (0 until 100).map(_ * 2), "the next call")
    }
  }

  test("no roots, no dispatch") {
    val before = DriverPool.passes
    DriverPool.run(IndexedSeq.empty, 4)
    assert(DriverPool.passes == before)
  }
}
