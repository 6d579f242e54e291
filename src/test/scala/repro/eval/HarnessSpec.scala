package repro.eval

import repro.SimTestKit

class HarnessSpec extends SimTestKit {

  test("querySources picks distinct nodes with in-degree ≥ 1") {
    val srcs = Harness.querySources(rnd60u, 5)
    assert(srcs.size == 5 && srcs.distinct.size == 5)
    srcs.foreach(s => assert(rnd60u.csr.inDeg(s) > 0))
  }

  test("querySources is deterministic") {
    assert(Harness.querySources(rnd60u, 4) == Harness.querySources(rnd60u, 4))
  }

  test("smallGroundTruth returns exact columns") {
    val truth = Harness.smallGroundTruth(rnd40, Seq(1, 2), iters = 60)
    assertVecNear(truth(1), groundTruth(rnd40)(1), 1e-10, "harness ground truth")
  }

  test("ExactSim sweep rows are well-formed and error shrinks along the ladder") {
    val g = rnd60u
    val sources = Harness.querySources(g, 2)
    val truth = Harness.smallGroundTruth(g, sources, iters = 60)
    val rows = Harness.sweepExactSim(g, sources, truth, k = 5, Seq(0.3, 0.02), alpha = 5.0)
    assert(rows.size == 2)
    assert(rows.forall(_.algo == "ExactSim"))
    assert(rows(1).maxError < rows(0).maxError + 1e-9)
    assert(rows(1).maxError < 0.05)
  }

  test("budget capping yields SKIPPED rows instead of running") {
    val g = rnd40
    val sources = Seq(1)
    val truth = Harness.smallGroundTruth(g, sources, iters = 20)
    val mc = Harness.sweepMc(g, sources, truth, 5, Seq(1000), maxWalkPairs = 10)
    assert(mc.head.note.contains("SKIPPED") && mc.head.maxError.isNaN)
    val lin = Harness.sweepLinearization(g, sources, truth, 5, Seq(1e-4), alpha = 1.0, maxWalkPairs = 10)
    assert(lin.head.note.contains("SKIPPED"))
    val basic = Harness.sweepExactSim(g, sources, truth, 5, Seq(1e-5), alpha = 1.0,
      basic = true, maxWalkPairs = 10)
    assert(basic.head.note.contains("SKIPPED"))
  }

  test("ParSim and MC sweeps produce one row per parameter") {
    val g = rnd40
    val sources = Seq(2)
    val truth = Harness.smallGroundTruth(g, sources, iters = 40)
    assert(Harness.sweepParSim(g, sources, truth, 5, Seq(2, 5)).map(_.param) == Seq("L=2", "L=5"))
    val mc = Harness.sweepMc(g, sources, truth, 5, Seq(20), maxWalkPairs = Long.MaxValue)
    assert(mc.head.indexBytes > 0 && mc.head.walkPairs == g.n.toLong * 20)
  }

  test("every sweep fails fast, naming the method, when given no query sources") {
    val g = rnd40
    g.csr // collected here, so any job counted below is the sweeps' own
    val none = Seq.empty[Int]
    val sweeps = Seq[(String, () => Seq[Harness.SweepRow])](
      "ExactSim" -> (() => Harness.sweepExactSim(g, none, Map.empty, 5, Seq(0.1), alpha = 1.0)),
      "ParSim" -> (() => Harness.sweepParSim(g, none, Map.empty, 5, Seq(3))),
      "MC" -> (() => Harness.sweepMc(g, none, Map.empty, 5, Seq(10))),
      "Linearization" -> (() => Harness.sweepLinearization(g, none, Map.empty, 5, Seq(0.1), 1.0, Long.MaxValue)),
      "PRSim" -> (() => Harness.sweepPrSim(g, none, Map.empty, 5, Seq(0.1), 1.0, Long.MaxValue)))
    for ((algo, run) <- sweeps) {
      val jobs = jobsDuring {
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains(s"$algo sweep on rnd40: no query sources"), e.getMessage)
      }
      assert(jobs == 0, s"$algo: the sweep started work before failing")
    }
  }

  test("row formatting stays aligned and handles NaN") {
    val row = Harness.SweepRow("ds", "Algo", "p=1", Double.NaN, Double.NaN, Double.NaN, 1, 2, 3, "SKIPPED (x)")
    assert(row.tsv.contains("SKIPPED"))
    assert(Harness.header.nonEmpty)
  }
}
