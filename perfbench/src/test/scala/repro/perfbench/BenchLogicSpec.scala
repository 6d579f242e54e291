package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own arithmetic and checks, without Spark. */
class BenchLogicSpec extends AnyFunSuite {

  private val S = 1000000000L // ns per second

  private def rec(client: Int, startS: Double, endS: Double, ok: Boolean = true) =
    QueryRecord(client, 0, (startS * S).toLong, (endS * S).toLong, if (ok) None else Some("bad"))

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
  }

  test("one client: completed queries over the time to the last one") {
    val recs = Seq(rec(0, 0, 1), rec(0, 1, 2), rec(0, 2, 4))
    assert(math.abs(Stats.busyWindowThroughput(recs, 0L) - 3.0 / 4) < 1e-12)
  }

  test("the window ends when the first client runs out; a straddling query counts by its share") {
    // Client 0 finishes its last query at 6 s, so the window is [0, 6].
    // Client 1: one query ends at 4 s, the next runs 4–8 s and is half inside.
    val recs = Seq(rec(0, 0, 3), rec(0, 3, 6), rec(1, 0, 4), rec(1, 4, 8))
    assert(math.abs(Stats.busyWindowThroughput(recs, 0L) - 3.5 / 6) < 1e-12)
  }

  test("failed queries add nothing to throughput") {
    val recs = Seq(rec(0, 0, 1), rec(0, 1, 2, ok = false))
    assert(math.abs(Stats.busyWindowThroughput(recs, 0L) - 0.5) < 1e-12)
  }

  test("drift is second-half over first-half median latency, in start order") {
    val recs = Seq(rec(0, 0, 2), rec(0, 2, 4), rec(0, 4, 5), rec(0, 5, 6))
    assert(math.abs(Stats.drift(recs) - 0.5) < 1e-12)
    assert(Stats.drift(recs.take(1)) == 1.0)
  }

  private val eps = 1e-2
  private val truth = Array(1.0, 0.3, 0.0, 0.12)

  test("the checker passes an answer within eps") {
    val ok = truth.clone(); ok(1) += 0.9 * eps
    assert(Checker.verdict(0, truth.clone(), truth, eps).isEmpty)
    assert(Checker.verdict(0, ok, truth, eps).isEmpty)
  }

  test("the checker fails an entry shifted by 2·eps, S(i,i) ≠ 1, and scores outside [0, 1]") {
    val shifted = truth.clone(); shifted(3) += 2 * eps
    assert(Checker.verdict(0, shifted, truth, eps).exists(_.startsWith("MaxError")))
    val diag = truth.clone(); diag(0) = 0.99
    assert(Checker.verdict(0, diag, truth, eps).exists(_.startsWith("S(i,i)")))
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, -1e-3, 1.5)) {
      val v = truth.clone(); v(2) = bad
      assert(Checker.verdict(0, v, truth, eps).isDefined, s"score $bad passed")
    }
    assert(Checker.verdict(0, truth.take(3), truth, eps).isDefined)
  }

  test("corrupted and thrown queries lower pass_frac in the closed loop") {
    val truths = Map(0 -> truth, 1 -> truth, 2 -> truth, 3 -> truth)
    def check(src: Int, s: Array[Double]) = Checker.verdict(0, s, truths(src), eps)
    def run(query: Int => Array[Double]) =
      ClosedLoop.run(2, Seq(0, 1, 2, 3), 0.2, { src => Thread.sleep(5); query(src) }, check, keepScores = true)

    val clean = run(_ => truth.clone())
    assert(clean.records.nonEmpty && clean.passFrac == 1.0)
    assert(clean.records.map(_.client).toSet == Set(0, 1))
    assert(clean.scores.keySet == Set(0, 1, 2, 3))

    val corrupt: Int => Array[Double] = {
      case 1 => val s = truth.clone(); s(1) += 2 * eps; s
      case 2 => val s = truth.clone(); s(0) = 0.5; s
      case 3 => throw new IllegalStateException("query failed")
      case _ => truth.clone()
    }
    val w = run(corrupt)
    assert(w.passFrac < 0.5)
    assert(w.records.filter(_.source != 0).forall(!_.passed))
    assert(w.records.filter(_.source == 0).forall(_.passed))
    assert(w.records.filter(_.source == 3).forall(_.verdict.exists(_.startsWith("threw"))))
    assert(!w.scores.contains(3))
  }

  test("timing-engine counts and job idle time") {
    val eng = new TimingEngine(new repro.linalg.LocalEngine(
      repro.graph.Csr.fromEdges(3, Seq((0, 1), (1, 2), (2, 0)))))
    eng.mulP(Array(1.0, 0.0, 0.0)); eng.mulPT(Array(1.0, 1.0, 0.0))
    assert(eng.mulPCalls == 1 && eng.mulPTCalls == 1 && eng.nnzIn == 3)

    import JobRecorder.{Job, Task}
    // Job 0–100 ms; tasks cover 10–40 and 30–60: covered 50 ms, idle 50 ms.
    val jobs = Seq(Job(1, 0, 100, Set(7), None))
    val tasks = Seq(Task(7, 10, 40, 30, 0, false), Task(7, 30, 60, 30, 0, false), Task(8, 0, 100, 100, 0, false))
    assert(JobRecorder.idleMs(jobs, tasks) == 50)
  }

  test("result JSON has exactly the four keys and every digit") {
    val r = QueryBench.Result(3, 1, Seq(QueryBench.Metric("query_p50_ms", 1.2345678901, "ms")))
    assert(r.json == """{"correct": false, "attempted": 3, "failed": 1, "metrics": {"query_p50_ms": {"value": 1.2345678901, "unit": "ms"}}}""")
    assertThrows[IllegalArgumentException](Json.num(Double.NaN))
  }
}
