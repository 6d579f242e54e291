package repro.baselines

import repro.SimTestKit
import repro.core.Linearized
import repro.eval.Metrics
import repro.linalg.LocalEngine

class PrSimSpec extends SimTestKit {

  private def pageRank(g: repro.graph.GraphData, eps: Double) =
    PrSim.globalPageRank(g, C, Linearized.iterationsFor(C, eps))

  private def plannedPairs(g: repro.graph.GraphData, eps: Double, alpha: Double) =
    PrSim.indexTasks(pageRank(g, eps), eps, alpha).map(_._2).sum

  test("globalPageRank is the average of the PPR vectors") {
    val g = rnd40
    val eng = new LocalEngine(g.csr)
    val iters = 30
    val pr = PrSim.globalPageRank(g, C, iters)
    // Average the per-source PPR vectors computed independently.
    val avg = new Array[Double](g.n)
    (0 until g.n).foreach { s =>
      val fwd = Linearized.forward(eng, s, C, iters)
      (0 until g.n).foreach(k => avg(k) += fwd.pi(k) / g.n)
    }
    assertVecNear(pr, avg, 1e-9, "global PageRank")
  }

  test("PageRank mass is ≤ 1 and positive somewhere") {
    val pr = PrSim.globalPageRank(rnd60u, C, 30)
    assert(pr.sum <= 1.0 + 1e-9 && pr.sum > 0.5)
    pr.foreach(p => assert(p >= 0))
  }

  test("queries with the sampled index match ground truth within tolerance") {
    val g = rnd60u
    val truth = groundTruth(g)
    val idx = PrSim.buildIndex(g, pageRank(g, 0.05), C, eps = 0.05, alpha = 8.0, seed = 1)
    val scores = PrSim.singleSource(g, 3, idx, C, eps = 0.05)
    val err = Metrics.maxError(scores, truth(3))
    assert(err < 0.08, s"maxErr $err")
  }

  test("with the exact diagonal the query is exact (shares the linearized path)") {
    val g = rnd40
    val truth = groundTruth(g)
    val idx = PrSim.Index(exactD(g), 0L)
    val scores = PrSim.singleSource(g, 8, idx, C, eps = 1e-8)
    assertVecNear(scores, truth(8), 1e-7, "PRSim with exact D")
  }

  test("the index tasks' pairs bound the built index's walk count") {
    val g = rnd80
    val planned = plannedPairs(g, eps = 0.2, alpha = 2.0)
    val idx = PrSim.buildIndex(g, pageRank(g, 0.2), C, eps = 0.2, alpha = 2.0, seed = 2)
    // Planned counts every support node; the build skips trivial-D nodes.
    assert(idx.walkPairs <= planned)
    assert(planned > 0)
  }

  test("preprocessing cost scales with n·‖π̄‖²/ε² (the §2.2 obstacle)") {
    val g = rnd80
    val coarse = plannedPairs(g, eps = 0.2, alpha = 2.0)
    val fine = plannedPairs(g, eps = 0.02, alpha = 2.0)
    assert(fine > 50 * coarse, s"fine $fine vs coarse $coarse") // 100× in theory, ceil noise
  }

  test("deterministic") {
    val g = rnd40
    assert(PrSim.globalPageRank(g, C, 10).toSeq == PrSim.globalPageRank(g, C, 10).toSeq)
    val idx = PrSim.Index(exactD(g), 0L)
    val a = PrSim.singleSource(g, 8, idx, C, eps = 0.05)
    assert(a.toSeq == PrSim.singleSource(g, 8, idx, C, eps = 0.05).toSeq)
  }

  test("an out-of-range source fails fast with its id and n") {
    val idx = PrSim.Index(exactD(rnd40), 0L)
    for (src <- Seq(-1, rnd40.n)) {
      val e = intercept[IllegalArgumentException](PrSim.singleSource(rnd40, src, idx, C, eps = 0.1))
      assert(e.getMessage.contains(s"source $src") && e.getMessage.contains(s"${rnd40.n}"))
    }
  }
}
