package repro.baselines

import repro.SimTestKit
import repro.core.{Linearized, ExactSimConf}
import repro.eval.Metrics
import repro.linalg.LocalEngine

class LinearizationSpec extends SimTestKit {

  test("query with the exact diagonal reproduces the exact column (eq. 5 form)") {
    for (g <- Seq(star8, rnd40, rnd60u)) {
      val truth = groundTruth(g)
      val idx = Linearization.Index(exactD(g), 0L, 0L)
      val res = Linearization.singleSource(g, 2, idx, C, eps = 1e-8)
      assertVecNear(res.scores, truth(2), 1e-7, s"Linearization exact-D on ${g.name}")
    }
  }

  test("eq-5 query (O(mL²)) equals the stored-hop-vector backward query") {
    val g = rnd80
    val d = exactD(g)
    val eng = new LocalEngine(g.csr)
    val eps = 1e-6
    val eq5 = Linearization.singleSource(g, 9, Linearization.Index(d, 0L, 0L), C, eps).scores
    val fwd = Linearized.forward(eng, 9, C, Linearized.iterationsFor(C, eps))
    val back = Linearized.backward(eng, fwd, d, C)
    back(9) = 1.0
    assertVecNear(eq5, back, 1e-9, "eq-5 vs backward accumulation")
  }

  test("MC-estimated index gives results within statistical tolerance") {
    val g = rnd60u
    val truth = groundTruth(g)
    val idx = Linearization.buildIndex(g, C, eps = 0.05, alpha = 8.0, seed = 3)
    val res = Linearization.singleSource(g, 1, idx, C, eps = 0.05)
    val err = Metrics.maxError(res.scores, truth(1))
    assert(err < 0.06, s"maxErr $err")
  }

  test("index is one double per node and preprocessing pairs scale as n·R_node") {
    val g = rnd40
    val idx = Linearization.buildIndex(g, C, eps = 0.2, alpha = 2.0, seed = 4)
    assert(idx.bytes == g.n * 8L)
    val rNode = math.ceil(2.0 * math.log(g.n) / (0.2 * 0.2)).toLong
    val nontrivial = (0 until g.n).count(v => g.csr.inDeg(v) >= 2)
    assert(idx.walkPairs == rNode * nontrivial, s"${idx.walkPairs} vs ${rNode * nontrivial}")
  }

  test("diagonal estimates lie in [1−c, 1]") {
    val g = rnd80
    val idx = Linearization.buildIndex(g, C, eps = 0.1, alpha = 2.0, seed = 5)
    idx.dhat.foreach(d => assert(d >= 1 - C - 0.1 && d <= 1.0 + 1e-12))
  }

  test("an out-of-range source fails fast with its id and n") {
    val idx = Linearization.Index(exactD(rnd40), 0L, 0L)
    for (src <- Seq(-1, rnd40.n)) {
      val e = intercept[IllegalArgumentException](Linearization.singleSource(rnd40, src, idx, C, eps = 0.1))
      assert(e.getMessage.contains(s"source $src") && e.getMessage.contains(s"${rnd40.n}"))
    }
  }
}
