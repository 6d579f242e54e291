package repro.baselines

import repro.SimTestKit
import repro.eval.Metrics

class McSimSpec extends SimTestKit {

  test("estimates match Power Method within statistical tolerance") {
    val g = rnd60u
    val truth = groundTruth(g)
    val idx = McSim.buildIndex(g, C, r = 4000, seed = 1)
    val res = McSim.singleSource(g, 2, idx)
    val err = Metrics.maxError(res.scores, truth(2))
    assert(err < 0.05, s"maxErr $err") // std ≈ sqrt(S(1-S)/4000) ≤ 0.008
    idx.unpersist()
  }

  test("pair graph: estimate of S(0,1) concentrates at c") {
    val idx = McSim.buildIndex(pair, C, r = 8000, seed = 2)
    val res = McSim.singleSource(pair, 0, idx)
    assert(math.abs(res.scores(1) - C) < 0.03, s"${res.scores(1)}")
    assert(res.scores(2) == 0.0, "sink and parent never meet")
    idx.unpersist()
  }

  test("cycle: off-diagonal estimates are exactly 0 (walks never coincide)") {
    val idx = McSim.buildIndex(cycle7, C, r = 500, seed = 3)
    val res = McSim.singleSource(cycle7, 0, idx)
    (1 until 7).foreach(j => assert(res.scores(j) == 0.0))
    idx.unpersist()
  }

  test("index size accounting: rows × 28 bytes, more walks → bigger index") {
    val small = McSim.buildIndex(rnd40, C, r = 10, seed = 4)
    val big = McSim.buildIndex(rnd40, C, r = 50, seed = 4)
    assert(small.bytes == small.rows * 28)
    assert(big.rows > small.rows)
    small.unpersist(); big.unpersist()
  }

  test("accuracy improves with r (the MC tradeoff curve)") {
    val g = rnd40
    val truth = groundTruth(g)
    val errs = Seq(30, 3000).map { r =>
      val idx = McSim.buildIndex(g, C, r, seed = 5)
      val e = Metrics.maxError(McSim.singleSource(g, 6, idx).scores, truth(6))
      idx.unpersist(); e
    }
    assert(errs(1) < errs(0), s"errors $errs")
  }

  test("an out-of-range source fails fast with its id and n") {
    val idx = McSim.buildIndex(rnd40, C, r = 2, seed = 7)
    for (src <- Seq(-1, rnd40.n)) {
      var e: IllegalArgumentException = null
      val jobs = jobsDuring { e = intercept[IllegalArgumentException](McSim.singleSource(rnd40, src, idx)) }
      assert(e.getMessage.contains(s"source $src") && e.getMessage.contains(s"${rnd40.n}"))
      assert(jobs == 0, s"$jobs Spark jobs before the check")
    }
    idx.unpersist()
  }

  test("an index of no walks per node is rejected") {
    val e = intercept[IllegalArgumentException](McSim.buildIndex(rnd40, C, r = 0))
    assert(e.getMessage.contains("got 0"), e.getMessage)
  }

  test("source similarity is pinned to 1") {
    val idx = McSim.buildIndex(rnd40, C, r = 50, seed = 6)
    assert(McSim.singleSource(rnd40, 3, idx).scores(3) == 1.0)
    idx.unpersist()
  }
}
