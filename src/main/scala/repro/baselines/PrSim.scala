package repro.baselines

import repro.core.{DiagEstimator, DriverPool, ExactSimConf, Linearized}
import repro.graph.GraphData
import repro.linalg.LocalEngine

/** PRSim-lite (after Wei et al., SIGMOD'19).
  *
  * Faithful-in-shape substitution (see DESIGN.md §3.4): the index estimates
  * the diagonal `D̂` with pair-walk samples allocated by *global* PageRank —
  * `R(k) = ⌈n·R_base·π̄(k)²⌉` with `R_base = α·ln n/ε²` — so the total
  * preprocessing cost is `O(n·‖π̄‖²·log n/ε²)`, PRSim's average complexity:
  * sublinear-in-n behaviour on power-law graphs, but still n-scaled, which is
  * exactly why it cannot reach ε_min on large graphs (paper §2.2). Queries
  * run the linearized backward iteration in `O(m·log(1/ε))`.
  *
  * Unlike ExactSim the allocation is source-independent, so sources whose PPR
  * differs from global PageRank see larger errors — the "bad source" effect
  * the paper describes.
  */
object PrSim {

  final case class Index(dhat: Array[Double], walkPairs: Long) {
    def bytes: Long = dhat.length.toLong * 8
  }

  /** Global PageRank proxy: π̄ = (1−√c)·Σ_ℓ (√c P)^ℓ · (1/n)·1 — the average
    * of all PPR vectors, by mat-vecs on the CSR as in the queries.
    */
  def globalPageRank(graph: GraphData, c: Double, iters: Int): Array[Double] = {
    val eng = new LocalEngine(graph.csr)
    val n = graph.n
    val sqrtC = math.sqrt(c)
    var cur = Array.fill(n)((1.0 - sqrtC) / n)
    val pi = cur.clone()
    var ell = 1
    while (ell <= iters) {
      cur = eng.mulP(cur)
      var k = 0
      while (k < n) { cur(k) *= sqrtC; pi(k) += cur(k); k += 1 }
      ell += 1
    }
    pi
  }

  /** The index's D̂ tasks for PageRank `pr`: `R(k) = ⌈n·R_base·π̄(k)²⌉`. */
  def indexTasks(pr: Array[Double], eps: Double, alpha: Double): IndexedSeq[(Int, Long)] = {
    val n = pr.length
    val rBase = ExactSimConf.sampleBudget(n, eps, alpha)
    pr.indices.collect {
      case k if pr(k) > 0.0 => k -> math.ceil(n * rBase * pr(k) * pr(k)).toLong.max(1L)
    }
  }

  /** Build the index for PageRank `pr` ([[globalPageRank]]): Algorithm-2
    * sampling (zero-level Algorithm 3) over [[indexTasks]].
    */
  def buildIndex(graph: GraphData, pr: Array[Double], c: Double, eps: Double, alpha: Double,
                 seed: Long = 42): Index = {
    val res = DiagEstimator.localExploit(graph.csr, indexTasks(pr, eps, alpha), c, seed, 0,
      DriverPool.size(graph.spark.sparkContext))
    Index(res.dense(graph.csr, c), res.walkPairs)
  }

  def singleSource(graph: GraphData, source: Int, index: Index, c: Double, eps: Double): Array[Double] = {
    Linearized.requireSource(source, graph.n)
    val eng = new LocalEngine(graph.csr)
    val fwd = Linearized.forward(eng, source, c, Linearized.iterationsFor(c, eps))
    val scores = Linearized.backward(eng, fwd, index.dhat, c)
    scores(source) = 1.0
    scores
  }
}
