package repro.core

import repro.SimTestKit
import repro.baselines.{Linearization, PrSim}
import repro.eval.{Datasets, Harness}
import repro.graph.GraphData
import repro.linalg.LocalEngine

import scala.collection.mutable
import scala.reflect.ClassTag

class DiagEstimatorSpec extends SimTestKit {

  private lazy val threads = DriverPool.size(spark.sparkContext)

  private def bits(r: DiagEstimator.DiagResult) =
    (r.dhat.map { case (k, v) => k -> java.lang.Double.doubleToRawLongBits(v) }, r.walkPairs, r.edgesExplored)

  /** `cases.map(f)` on the driver pool: one root per case that writes its
    * slot and queues nothing.
    */
  private def poolMap[A, B: ClassTag](cases: IndexedSeq[A])(f: A => B): Array[B] = {
    val out = new Array[B](cases.size)
    DriverPool.run(cases.indices.map(i => () => { out(i) = f(cases(i)); Nil }), spark.sparkContext.defaultParallelism)
    out
  }

  test("trivial cases: in-degree 0 → 1, in-degree 1 → 1−c") {
    assert(DiagEstimator.trivial(pair.csr, 2, C).contains(1.0))
    assert(DiagEstimator.trivial(pair.csr, 0, C).contains(1.0 - C))
    assert(DiagEstimator.trivial(star8.csr, 0, C).isEmpty) // center has in-degree 7
  }

  for (name <- Seq("star8", "complete5", "rnd40", "rnd60u", "rnd80"))
    test(s"basic (Algorithm 2) matches exact D on $name") {
      val g = battery.find(_.name == name).get
      val d = exactD(g)
      val tasks = (0 until g.n).map(k => k -> 30000L)
      val res = DiagEstimator.localExploit(g.csr, tasks, C, 21, 0, threads)
      assert(res.edgesExplored == 0L)
      (0 until g.n).foreach { k =>
        assert(math.abs(res.dhat(k) - d(k)) < 0.02,
          s"${g.name} D($k): ${res.dhat(k)} vs ${d(k)}")
      }
    }

  test("basic returns exact values for trivial nodes without sampling") {
    val res = DiagEstimator.localExploit(pair.csr, Seq(0 -> 10L, 1 -> 10L, 2 -> 10L), C, 1, 0, threads)
    assert(res.dhat(2) == 1.0 && res.dhat(0) == 1.0 - C && res.dhat(1) == 1.0 - C)
    assert(res.walkPairs == 0L)
  }

  for (name <- Seq("star8", "complete5", "rnd40", "rnd60u"))
    test(s"deterministic recursion (Algorithm 3, unbounded) equals exact D on $name") {
      val g = battery.find(_.name == name).get
      val d = exactD(g)
      (0 until g.n).foreach { k =>
        val est = 1.0 - DiagEstimator.deterministicPhase(g.csr, k, Long.MaxValue, C, 25).zSum
        assert(math.abs(est - d(k)) <= math.pow(C, 25) + 1e-9,
          s"${g.name} D($k): $est vs ${d(k)}")
      }
    }

  test("Z-recursion telescopes: first-meet mass never exceeds meet probability") {
    // 1 − D(k,k) = Σ_ℓ Z_ℓ(k) and partial sums are monotone in depth.
    val g = rnd40
    val d = exactD(g)
    val k = (0 until g.n).find(v => g.csr.inDeg(v) >= 2).get
    def dhat(depth: Int) = 1.0 - DiagEstimator.deterministicPhase(g.csr, k, Long.MaxValue, C, depth).zSum
    val shallow = dhat(3)
    val deep = dhat(20)
    assert(shallow >= deep - 1e-12, "deeper recursion can only move D̂ down")
    assert(deep >= d(k) - 1e-9, "partial Z-sums cannot overshoot the true meet mass")
  }

  test("estimateNode with sampling matches exact D within tolerance") {
    // One node per call, each with its own seed: a single-task estimate of D(k,k).
    for (g <- Seq(star8, rnd40, rnd80)) {
      val d = exactD(g)
      val ks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2).take(6)
      ks.foreach { k =>
        val res = DiagEstimator.localExploit(g.csr, Seq(k -> 20000L), C, 77 + k, DiagEstimator.MaxLevel, threads)
        assert(res.walkPairs == 20000L)
        assert(math.abs(res.dhat(k) - d(k)) < 0.02, s"${g.name} D($k): ${res.dhat(k)} vs ${d(k)}")
      }
    }
  }

  test("localExploit (distributed Algorithm 3) matches exact D") {
    for (g <- Seq(rnd60u, star8, rnd40, rnd80)) {
      val d = exactD(g)
      val tasks = (0 until g.n).map(k => k -> 20000L)
      val res = DiagEstimator.localExploit(g.csr, tasks, C, 31, DiagEstimator.MaxLevel, threads)
      (0 until g.n).foreach { k =>
        assert(math.abs(res.dhat(k) - d(k)) < 0.02, s"${g.name} D($k): ${res.dhat(k)} vs ${d(k)}")
      }
    }
  }

  test("phase A on primitive arrays equals the hash-map reference node by node") {
    // Every node at two query-sized budgets; on the battery also at the cap
    // and unbounded to depth 25. GQ-lite's cap runs on its 16 largest
    // in-degrees, the hubs the cap exists for: on all 2,000 nodes the boxed
    // reference alone takes minutes.
    val capped = Seq(DiagEstimator.edgeBudget(10L, C), DiagEstimator.edgeBudget(100000L, C))
      .map(_ -> DiagEstimator.MaxLevel)
    val deep = Seq(DiagEstimator.MaxEdgesPerNode -> DiagEstimator.MaxLevel, Long.MaxValue -> 25)
    val gq = Datasets.byKey("GQ-lite").generate(spark)
    val hubs = (0 until gq.n).sortBy(k => -gq.csr.inDeg(k)).take(16)
    val cases =
      (for (g <- battery; (budget, depth) <- capped ++ deep; k <- 0 until g.n) yield (g, k, budget, depth)) ++
        (for ((budget, depth) <- capped; k <- 0 until gq.n) yield (gq, k, budget, depth)) ++
        hubs.map(k => (gq, k, DiagEstimator.MaxEdgesPerNode, DiagEstimator.MaxLevel))
    val diffs = poolMap(cases.toIndexedSeq) {
      case (g, k, budget, depth) =>
        val got = DiagEstimator.deterministicPhase(g.csr, k, budget, C, depth)
        val want = ReferencePhaseA.deterministicPhase(g.csr, k, budget, C, depth)
        val same = got.level == want.level && got.edges == want.edges && math.abs(got.zSum - want.zSum) <= 1e-15
        if (same) None else Some(s"${g.name} node $k, budget $budget: $got vs $want")
    }.flatten
    if (diffs.nonEmpty) fail(s"${diffs.length} of ${cases.length} differ, first: ${diffs.take(3).mkString("; ")}")
  }

  test("phase A's level and edges do not depend on the order of Z's additions") {
    // The reference in hash-layout order against insertion order, on the
    // cases where skipping a Z entry that cancelled to 0.0 made them differ.
    val gq = Datasets.byKey("GQ-lite").generate(spark)
    val cases =
      (for (g <- Seq(rnd60u, rnd80); k <- 0 until g.n) yield (g, k, Long.MaxValue, 25)) ++
        (0 until gq.n).map(k => (gq, k, DiagEstimator.edgeBudget(100000L, C), DiagEstimator.MaxLevel))
    val diffs = poolMap(cases.toIndexedSeq) {
      case (g, k, budget, depth) =>
        val hashed = ReferencePhaseA.deterministicPhase(g.csr, k, budget, C, depth, insertionOrder = false)
        val linked = ReferencePhaseA.deterministicPhase(g.csr, k, budget, C, depth)
        if (hashed.level == linked.level && hashed.edges == linked.edges) None
        else Some(s"${g.name} node $k, budget $budget: $hashed vs $linked")
    }.flatten
    if (diffs.nonEmpty) fail(s"${diffs.length} of ${cases.length} differ, first: ${diffs.take(3).mkString("; ")}")
  }

  test("D̂ of split tasks on 1 and all threads equals the serial reference") {
    // Optimized query tasks large enough that their forced prefixes are split.
    val gq = Datasets.byKey("GQ-lite").generate(spark)
    val conf = ExactSimConf.optimized(0.05, 400.0, seed = 21)
    for (source <- Harness.querySources(gq, 2)) {
      val fwd = Linearized.forward(new LocalEngine(gq.csr), source, C, conf.iterations, conf.truncationThreshold)
      val tasks = ExactSim.allocate(fwd.pi, conf.totalSamples(gq.n), conf.piSquared)
      assert(tasks.map(_._2).max >= 100000L, s"source $source: no task reaches 1e5 pairs")
      val one = bits(DiagEstimator.localExploit(gq.csr, tasks, C, conf.seed, DiagEstimator.MaxLevel, 1))
      val all = DiagEstimator.localExploit(gq.csr, tasks, C, conf.seed, DiagEstimator.MaxLevel, threads)
      assert(one == bits(all), s"source $source: 1 thread vs $threads")
      assert(one == bits(ReferenceDiag.localExploit(gq.csr, tasks, C, conf.seed, DiagEstimator.MaxLevel)),
        s"source $source: 1 thread vs the serial reference")
    }
  }

  test("localExploit reports deterministic edge exploration") {
    val g = rnd40
    val tasks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2).map(k => k -> 1000L)
    val a = DiagEstimator.localExploit(g.csr, tasks, C, 5, DiagEstimator.MaxLevel, threads)
    val b = DiagEstimator.localExploit(g.csr, tasks, C, 5, DiagEstimator.MaxLevel, threads)
    assert(a.dhat == b.dhat)
    assert(a.edgesExplored == b.edgesExplored && a.edgesExplored > 0)
  }

  test("bigger budgets push more work into the deterministic part") {
    val g = rnd80
    val k = (0 until g.n).maxBy(g.csr.inDeg)
    def edges(rk: Long) =
      DiagEstimator.deterministicPhase(g.csr, k, DiagEstimator.edgeBudget(rk, C), C, DiagEstimator.MaxLevel).edges
    assert(edges(100000L) > edges(10L))
  }

  test("variance shrinks with local exploitation at equal sample counts") {
    // The Algorithm-3 estimator's deviation from exact D should generally be
    // smaller than Algorithm 2's at the same R(k) — check summed squared error
    // over nodes rather than per-node (both are unbiased; this is a variance
    // comparison with a fixed seed).
    val g = rnd80
    val d = exactD(g)
    val ks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2)
    val tasks = ks.map(k => k -> 300L)
    val alg2 = DiagEstimator.localExploit(g.csr, tasks, C, 13, 0, threads)
    val alg3 = DiagEstimator.localExploit(g.csr, tasks, C, 13, DiagEstimator.MaxLevel, threads)
    def sse(m: Map[Int, Double]) = ks.map(k => math.pow(m(k) - d(k), 2)).sum
    assert(sse(alg3.dhat) < sse(alg2.dhat),
      s"alg3 sse ${sse(alg3.dhat)} should beat alg2 sse ${sse(alg2.dhat)}")
  }

  test("zero levels launch no Spark job, explore no edges and walk Σ R(k)") {
    val g = rnd80
    val tasks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2).map(k => k -> 500L)
    var zero: DiagEstimator.DiagResult = null
    val jobs = jobsDuring { zero = DiagEstimator.localExploit(g.csr, tasks, C, 7, 0, threads) }
    assert(jobs == 0, s"$jobs Spark jobs")
    assert(zero.edgesExplored == 0L && zero.walkPairs == tasks.map(_._2).sum)
  }

  test("dense D̂: task estimates, else the trivial value, else 1 − c") {
    // pair: nodes 0 and 1 have in-degree 1, node 2 has none; star8's center has in-degree 7.
    assert(DiagEstimator.DiagResult(Map(1 -> 0.25), 0L, 0L).dense(pair.csr, C).toSeq == Seq(1.0 - C, 0.25, 1.0))
    assert(DiagEstimator.DiagResult(Map.empty, 0L, 0L).dense(star8.csr, C)(0) == 1.0 - C)
  }

  test("pool and serial D̂ are bit-identical on query and index tasks") {
    var biggest = 0L
    def same(g: GraphData, what: String, tasks: Seq[(Int, Long)], maxLevel: Int, seed: Long): Unit = {
      biggest = math.max(biggest, tasks.map(_._2).max)
      val pool = DiagEstimator.localExploit(g.csr, tasks, C, seed, maxLevel, threads)
      val serial = ReferenceDiag.localExploit(g.csr, tasks, C, seed, maxLevel)
      assert(bits(pool) == bits(serial), s"${g.name} $what: the pool and the serial reference differ")
      assert(pool.walkPairs == tasks.filter { case (k, _) => g.csr.inDeg(k) >= 2 }.map(_._2).sum)
    }
    val gq = Datasets.byKey("GQ-lite").generate(spark)
    for ((g, alpha) <- battery.map(_ -> 20.0) :+ (gq -> 1.0)) {
      for (conf <- Seq(ExactSimConf.basic(0.05, alpha, seed = 21), ExactSimConf.optimized(0.05, alpha, seed = 21));
           source <- Harness.querySources(g, 2)) {
        val fwd = Linearized.forward(new LocalEngine(g.csr), source, C, conf.iterations, conf.truncationThreshold)
        val tasks = ExactSim.allocate(fwd.pi, conf.totalSamples(g.n), conf.piSquared)
        same(g, s"source $source, localExploit=${conf.localExploit}", tasks,
          if (conf.localExploit) DiagEstimator.MaxLevel else 0, conf.seed)
      }
      val rNode = Linearization.nodePairs(g.n, 0.3, 1.0)
      same(g, "Linearization index", (0 until g.n).map(_ -> rNode), 0, 42)
      val pr = PrSim.globalPageRank(g, C, Linearized.iterationsFor(C, 0.05))
      same(g, "PRSim index", PrSim.indexTasks(pr, 0.05, 1.0), 0, 42)
    }
    assert(biggest > Walks.ChunkSize, "some task should span several chunks")
  }

  test("D̂ and scores on 1, 2, 3 and all threads equal the serial reference") {
    // Whole ExactSim queries on the CSR, basic and optimized at ε = 1e-2 on
    // GQ-lite and the battery (α = 20 gives GQ-lite tasks of several items):
    // the scores' raw bits and D̂'s counts must not depend on the thread
    // count. The reference folds the serial D̂ through the same passes.
    val gq = Datasets.byKey("GQ-lite").generate(spark)
    val dp = spark.sparkContext.defaultParallelism
    var multiItem = false
    for (g <- battery :+ gq; alpha <- Seq(1.0, 20.0);
         conf <- Seq(ExactSimConf.basic(1e-2, alpha, seed = 21), ExactSimConf.optimized(1e-2, alpha, seed = 21));
         source <- Harness.querySources(g, 2)) {
      val eng = new LocalEngine(g.csr)
      val fwd = Linearized.forward(eng, source, C, conf.iterations, conf.truncationThreshold)
      val tasks = ExactSim.allocate(fwd.pi, conf.totalSamples(g.n), conf.piSquared)
      multiItem ||= g == gq &&
        tasks.exists { case (k, rk) => rk > Walks.ChunkSize && DiagEstimator.trivial(g.csr, k, C).isEmpty }
      val ref = ReferenceDiag.localExploit(g.csr, tasks, C, conf.seed, if (conf.localExploit) DiagEstimator.MaxLevel else 0)
      val scores = Linearized.backward(eng, fwd, ref.dense(g.csr, C), C)
      scores(source) = 1.0
      def out(scores: Array[Double], walkPairs: Long, edges: Long) =
        (scores.map(java.lang.Double.doubleToRawLongBits).toSeq, walkPairs, edges)
      val want = out(scores, ref.walkPairs, ref.edgesExplored)
      for (threads <- Seq(1, 2, 3, dp)) {
        val r = ExactSim.singleSource(g.csr, source, conf, threads)
        assert(out(r.scores, r.walkPairs, r.edgesExplored) == want,
          s"${g.name} source $source, α = $alpha, localExploit=${conf.localExploit}: $threads threads vs the serial reference")
      }
    }
    assert(multiItem, "no GQ-lite task spans several items")
  }

  test("a task list of trivial nodes returns without dispatching any work") {
    val tasks = Seq(0 -> 10L, 1 -> 10L, 2 -> 10L) // pair: in-degrees 1, 1 and 0
    val before = DriverPool.passes
    var res: DiagEstimator.DiagResult = null
    val jobs = jobsDuring { res = DiagEstimator.localExploit(pair.csr, tasks, C, 1L, DiagEstimator.MaxLevel, threads) }
    assert(DriverPool.passes == before && jobs == 0)
    assert(res.walkPairs == 0L && res.dhat == Map(0 -> (1.0 - C), 1 -> (1.0 - C), 2 -> 1.0))
  }

  test("a task of more than Int.MaxValue chunks is rejected before any phase A runs") {
    val hub = (0 until rnd40.n).maxBy(rnd40.csr.inDeg)
    val other = (0 until rnd40.n).find(k => k != hub && rnd40.csr.inDeg(k) >= 2).get
    val tasks = Seq(other -> 1000L, hub -> (1L << 45))
    val before = DriverPool.passes
    var e: IllegalArgumentException = null
    val jobs = jobsDuring {
      e = intercept[IllegalArgumentException](DiagEstimator.localExploit(rnd40.csr, tasks, C, 1L, DiagEstimator.MaxLevel, threads))
    }
    assert(e.getMessage.contains(s"node $hub") && e.getMessage.contains((1L << 45).toString), e.getMessage)
    assert(DriverPool.passes == before && jobs == 0, "work started")
  }

  test("a node given two tasks is rejected") {
    val k = (0 until rnd40.n).find(rnd40.csr.inDeg(_) >= 2).get
    val e = intercept[IllegalArgumentException](
      DiagEstimator.localExploit(rnd40.csr, Seq(k -> 10L, k -> 20L), C, 1, DiagEstimator.MaxLevel, threads))
    assert(e.getMessage.contains(s"node $k"), e.getMessage)
  }

  test("the pool pass starts the largest task first, ties in task order") {
    val g = rnd40.csr
    val ks = (0 until g.n).filter(g.inDeg(_) >= 2).take(5)
    val tasks = IndexedSeq(ks(0) -> 5L, ks(1) -> 100L, ks(2) -> 5L, ks(3) -> 70000L, ks(4) -> 100L)
    val started = mutable.ArrayBuffer.empty[Int]
    Walks.poolPass(g, tasks, C, 3L, threads = 1) { i => started += i; 0 }
    assert(started == Seq(3, 1, 4, 0, 2))
  }
}
