package repro.linalg

import repro.SimTestKit
import repro.baselines.ParSim
import repro.core.{DiagEstimator, ExactSim, ExactSimConf}

/** Guards the default mat-vec engine: the forward and backward passes run on
  * the driver-side CSR, so they launch no Spark jobs. On the tests' local
  * master D̂ runs in-process too ([[DiagEstimator.runsInProcess]]), so a whole
  * ExactSim query launches none.
  */
class DefaultEngineSpec extends SimTestKit {

  test("ParSim with the default engine launches no Spark jobs") {
    val g = rnd80
    g.csr // collecting the CSR is a job of its own; it happens once per graph
    assert(jobsDuring(ParSim.singleSource(g, 5, C, 20)) == 0)
  }

  test("ExactSim's Spark job count does not grow with the iteration count L") {
    // α is large enough that both D̂s plan more pairs than the cluster
    // cut-off, so they take the Spark pass on a cluster and stay in-process
    // on a local master.
    val g = rnd80
    g.csr
    val coarse = ExactSimConf.optimized(0.1, 3000.0, seed = 3)
    val fine = ExactSimConf.optimized(0.01, 30.0, seed = 3)
    assert(fine.iterations > coarse.iterations)
    var pairs = Seq.empty[Long]
    val jobsCoarse = jobsDuring(pairs :+= ExactSim.singleSource(g, 5, coarse).walkPairs)
    val jobsFine = jobsDuring(pairs :+= ExactSim.singleSource(g, 5, fine).walkPairs)
    assert(pairs.forall(_ > DiagEstimator.InProcessMaxPairs), s"planned pairs $pairs")
    if (spark.sparkContext.isLocal) assert(jobsCoarse == 0, "on a local master D̂ should run in-process")
    else assert(jobsCoarse > 0, "on a cluster, D̂ above the cut-off should run as Spark jobs")
    assert(jobsFine == jobsCoarse,
      s"L=${coarse.iterations}: $jobsCoarse jobs, L=${fine.iterations}: $jobsFine jobs")
  }
}
