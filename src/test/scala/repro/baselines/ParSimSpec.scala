package repro.baselines

import repro.SimTestKit
import repro.eval.Metrics

class ParSimSpec extends SimTestKit {

  test("exact on graphs where D = (1−c)I is the true diagonal (cycle, path, pair off-diagonal)") {
    // On the cycle every node has in-degree 1, so D = (1−c)I exactly.
    val truth = groundTruth(cycle7)
    val res = ParSim.singleSource(cycle7, 2, C, iters = 40)
    assertVecNear(res.scores, truth(2), 1e-8, "ParSim on cycle7")
  }

  test("error decreases with L down to the D-approximation bias floor") {
    val g = rnd60u
    val truth = groundTruth(g)
    val errs = Seq(1, 3, 10, 40).map { l =>
      Metrics.maxError(ParSim.singleSource(g, 4, C, l).scores, truth(4))
    }
    assert(errs(1) <= errs(0) + 1e-12 && errs(2) <= errs(1) + 1e-12)
    // The floor: more iterations stop helping once c^L ≪ bias.
    assert(math.abs(errs(3) - errs(2)) < 0.05)
  }

  test("ParSim has a persistent bias on graphs with in-degree ≥ 2 (ignores first meeting)") {
    // The paper's point: D=(1−c)I ignores the first-meeting constraint; on
    // star/complete graphs the bias is visible at any L.
    for (g <- Seq(star8, complete5)) {
      val truth = groundTruth(g)
      val err = Metrics.maxError(ParSim.singleSource(g, 1, C, 50).scores, truth(1))
      assert(err > 0.01, s"${g.name}: expected visible bias, got $err")
    }
  }

  test("high precision@k despite MaxError bias (the paper's Figure 2 finding)") {
    val g = rnd80
    val truth = groundTruth(g)
    val res = ParSim.singleSource(g, 5, C, 30)
    val prec = Metrics.precisionAtK(res.scores, truth(5), k = 10, source = 5)
    assert(prec >= 0.8, s"precision@10 $prec")
  }

  test("deterministic") {
    val g = rnd40
    val a = ParSim.singleSource(g, 3, C, 15).scores
    assert(a.toSeq == ParSim.singleSource(g, 3, C, 15).scores.toSeq)
  }

  test("an out-of-range source fails fast with its id and n") {
    for (src <- Seq(-1, rnd40.n)) {
      val e = intercept[IllegalArgumentException](ParSim.singleSource(rnd40, src, C, 5))
      assert(e.getMessage.contains(s"source $src") && e.getMessage.contains(s"${rnd40.n}"))
    }
  }
}
