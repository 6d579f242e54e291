package repro.eval

import repro.SimTestKit
import repro.core.{ExactSim, ExactSimConf}

class MemoryModelSpec extends SimTestKit {

  test("row ratios") {
    val r = MemoryModel.Row("x", basicBytes = 1200, optimizedBytes = 200, graphBytes = 600)
    assert(r.basicOverGraph == 2.0)
    assert(r.basicOverOptimized == 6.0)
  }

  test("fmtMB prints mebibytes with 2 decimals") {
    assert(MemoryModel.fmtMB(1048576) == "1.00")
    assert(MemoryModel.fmtMB(5 * 1048576 + 524288) == "5.50")
  }

  test("basic bytes are basic ExactSim's L(ε) + 1 dense vectors and exceed an optimized run's") {
    val g = rnd80
    assert(MemoryModel.basicBytes(g.n, C, 0.01) == (ExactSimConf.basic(0.01, 1.0).iterations + 1).toLong * g.n * 8)
    val res = ExactSim.singleSource(g, 1, ExactSimConf.optimized(0.01, 1.0, seed = 1))
    assert(MemoryModel.basicBytes(g.n, C, 0.01) > res.hopVectorBytes)
  }
}
