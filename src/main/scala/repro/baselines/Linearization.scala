package repro.baselines

import repro.core.{DiagEstimator, DriverPool, ExactSimConf, Linearized}
import repro.graph.GraphData
import repro.linalg.LocalEngine

/** Linearization (Maehara et al.): index-based.
  *
  * Preprocessing estimates every `D(k,k)` by Monte Carlo with
  * `R_node = ⌈α·ln n/ε²⌉` pair-walks *per node* — the `O(n·log n/ε²)` term
  * that §2.2 identifies as the obstacle to exactness. The query phase then
  * runs the linearized iteration. The paper's experiments use the variant
  * that recomputes `P^ℓ e_i` per level instead of storing all hop vectors
  * (`O(m·L²)` time, `O(n)` space); we implement that faithfully so the query
  * time curve has the right shape.
  */
object Linearization {

  /** The index: the estimated diagonal and the pair-walks it drew. */
  final case class Index(dhat: Array[Double], walkPairs: Long) {
    /** Index = one double per node (the paper's vertical line in Figure 4). */
    def bytes: Long = dhat.length.toLong * 8
  }

  /** Pair-walks per node, `R_node = ⌈α·ln n/ε²⌉`; the index costs `n·R_node`. */
  def nodePairs(n: Int, eps: Double, alpha: Double): Long =
    math.ceil(ExactSimConf.sampleBudget(n, eps, alpha)).toLong.max(1L)

  /** Build the diagonal index: Algorithm-2 sampling (zero-level Algorithm 3)
    * at every node.
    */
  def buildIndex(graph: GraphData, c: Double, eps: Double, alpha: Double,
                 seed: Long = 42): Index = {
    val rNode = nodePairs(graph.n, eps, alpha)
    val tasks = (0 until graph.n).map(k => k -> rNode)
    val res = DiagEstimator.localExploit(graph.csr, tasks, c, seed, 0, DriverPool.size(graph.spark.sparkContext))
    Index(res.dense(graph.csr, c), res.walkPairs)
  }

  /** Query via eq. (5): for each level ℓ recompute `u_ℓ = P^ℓ e_i` from
    * scratch and accumulate `c^ℓ (Pᵀ)^ℓ D u_ℓ` — O(m·L²) work, O(n) space.
    */
  def singleSource(graph: GraphData, source: Int, index: Index, c: Double, eps: Double): Array[Double] = {
    Linearized.requireSource(source, graph.n)
    val eng = new LocalEngine(graph.csr)
    val n = graph.n
    val iters = Linearized.iterationsFor(c, eps)
    val acc = new Array[Double](n)
    var ell = 0
    while (ell <= iters) {
      var u = new Array[Double](n)
      u(source) = 1.0
      var s = 0
      while (s < ell) { u = eng.mulP(u); s += 1 }
      var k = 0
      while (k < n) { u(k) *= index.dhat(k); k += 1 }
      s = 0
      while (s < ell) { u = eng.mulPT(u); s += 1 }
      val cl = math.pow(c, ell)
      k = 0
      while (k < n) { acc(k) += cl * u(k); k += 1 }
      ell += 1
    }
    acc(source) = 1.0
    acc
  }
}
