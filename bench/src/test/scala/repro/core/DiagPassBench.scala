package repro.core

import repro.SparkSpec
import repro.eval.{Datasets, Harness}
import repro.linalg.LocalEngine

/** The D̂ pool pass on the query task lists of perfbench's two GQ-lite
  * workloads: ε = 1e-2, α = 1 (gq-coarse) and Theorem 1's α (gq-paper), 8
  * sources drawn at seed 21, the workloads' walk seeds. Prints one JSON line
  * per source: the median ms of `localExploit` after warm-up, the ms of the
  * largest task's phase A alone, the planned item count, and whether D̂ and
  * its counts are bit-identical to the serial reference ([[ReferenceDiag]];
  * the suite fails if not). Run with
  * `sbt "bench/testOnly repro.core.DiagPassBench"`; under a minute on 4 cores.
  */
class DiagPassBench extends SparkSpec {

  private val C = Harness.C

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    (s((s.size - 1) / 2) + s(s.size / 2)) / 2
  }

  private def millis[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val out = body
    (out, (System.nanoTime() - t0) / 1e6)
  }

  test("D̂ pool pass on gq-coarse and gq-paper tasks") {
    val gq = Datasets.byKey("GQ-lite").generate(spark)
    val g = gq.csr
    val sources = Harness.querySources(gq, 8, seed = 21)
    // (workload, α, warm-up calls on the first source, timed calls per source)
    val workloads = Seq(("gq-coarse", 1.0, 200, 51), ("gq-paper", ExactSimConf.paperAlpha(C), 1, 2))
    for ((name, alpha, warm, timed) <- workloads) {
      val queries = sources.map { source =>
        val conf = ExactSimConf.optimized(1e-2, alpha, seed = 100L + source)
        val fwd = Linearized.forward(new LocalEngine(g), source, C, conf.iterations, conf.truncationThreshold)
        (source, conf.seed, ExactSim.allocate(fwd.pi, conf.totalSamples(gq.n), conf.piSquared))
      }
      val threads = DriverPool.size(spark.sparkContext)
      def pass(seed: Long, tasks: Seq[(Int, Long)]) =
        DiagEstimator.localExploit(g, tasks, C, seed, DiagEstimator.MaxLevel, threads)
      (1 to warm).foreach(_ => pass(queries.head._2, queries.head._3))
      for ((source, seed, tasks) <- queries) {
        val runs = (1 to timed).map(_ => millis(pass(seed, tasks)))
        val pool = runs.head._1
        val work = tasks.filter { case (k, _) => DiagEstimator.trivial(g, k, C).isEmpty }
        def phaseA(k: Int, rk: Long) =
          DiagEstimator.deterministicPhase(g, k, DiagEstimator.edgeBudget(rk, C), C, DiagEstimator.MaxLevel)
        val (hub, hubPairs) = work.maxBy(_._2)
        val hubMs = median((1 to 5).map(_ => millis(phaseA(hub, hubPairs))._2))
        val items = work.map { case (k, rk) => Walks.items(g, k, rk, phaseA(k, rk).level, seed).size }.sum
        val serial = ReferenceDiag.localExploit(g, tasks, C, seed, DiagEstimator.MaxLevel)
        val same = pool.walkPairs == serial.walkPairs && pool.edgesExplored == serial.edgesExplored &&
          pool.dhat.keySet == serial.dhat.keySet && pool.dhat.forall { case (k, v) =>
            java.lang.Double.doubleToRawLongBits(v) == java.lang.Double.doubleToRawLongBits(serial.dhat(k))
          }
        println(s"""{"workload": "$name", "source": $source, "tasks": ${work.size}, """ +
          s""""pairs": ${pool.walkPairs}, "diag_p50_ms": ${"%.3f".format(median(runs.map(_._2)))}, """ +
          s""""hub": $hub, "hub_phaseA_ms": ${"%.3f".format(hubMs)}, "items": $items, """ +
          s""""bit_identical_to_serial": $same}""")
        assert(same, s"$name source $source: the pool pass and the serial reference differ")
      }
    }
  }
}
