package repro.linalg

import repro.SimTestKit
import repro.baselines.ParSim
import repro.core.{ExactSim, ExactSimConf}

/** Guards the default mat-vec engine: the forward and backward passes run on
  * the driver-side CSR, so they launch no Spark jobs. Only D̂ does.
  */
class DefaultEngineSpec extends SimTestKit {

  test("ParSim with the default engine launches no Spark jobs") {
    val g = rnd80
    g.csr // collecting the CSR is a job of its own; it happens once per graph
    assert(jobsDuring(ParSim.singleSource(g, 5, C, 20)) == 0)
  }

  test("ExactSim's Spark job count does not grow with the iteration count L") {
    val g = rnd80
    g.csr
    val coarse = ExactSimConf.optimized(0.1, 1.0, seed = 3)
    val fine = ExactSimConf.optimized(0.01, 1.0, seed = 3)
    assert(fine.iterations > coarse.iterations)
    val jobsCoarse = jobsDuring(ExactSim.singleSource(g, 5, coarse))
    val jobsFine = jobsDuring(ExactSim.singleSource(g, 5, fine))
    assert(jobsCoarse > 0, "D̂ should still run as Spark jobs")
    assert(jobsFine == jobsCoarse,
      s"L=${coarse.iterations}: $jobsCoarse jobs, L=${fine.iterations}: $jobsFine jobs")
  }
}
