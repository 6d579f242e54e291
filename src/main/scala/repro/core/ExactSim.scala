package repro.core

import repro.graph.{Csr, GraphData}
import repro.linalg.LocalEngine

/** Configuration for [[ExactSim]].
  *
  * @param c           SimRank decay factor (paper experiments use 0.6)
  * @param eps         additive error target ε
  * @param alpha       multiplier in the sample budget `R = ⌈α·ln n / ε²⌉`.
  *                    The paper's Theorem-1 constant is `6/(1−√c)⁴`
  *                    ([[ExactSimConf.paperAlpha]]); benches use a smaller α
  *                    to fit the session's wall-clock (documented substitution
  *                    — the estimator stays unbiased and errors are measured).
  * @param sparse      sparse Linearization (§3.2): truncate hop vectors at
  *                    `(1−√c)²·ε/2` and halve ε elsewhere, per Lemma 2
  * @param piSquared   allocate samples ∝ π_i(k)²/‖π_i‖² and scale R by ‖π_i‖²
  *                    (Lemma 3) instead of ∝ π_i(k)
  * @param localExploit use Algorithm 3 for D̂; off runs it with zero
  *                    deterministic levels, which is Algorithm 2
  * @param seed        RNG seed for the walk engine
  */
final case class ExactSimConf(
    c: Double = 0.6,
    eps: Double = 1e-4,
    alpha: Double = ExactSimConf.paperAlpha(0.6),
    sparse: Boolean = true,
    piSquared: Boolean = true,
    localExploit: Boolean = true,
    seed: Long = 42,
) {
  require(c > 0 && c < 1, "decay factor must be in (0,1)")
  require(eps > 0 && eps < 1, s"eps must be in (0,1), got $eps")
  require(alpha > 0 && alpha < Double.PositiveInfinity, s"alpha must be positive and finite, got $alpha")

  def sqrtC: Double = math.sqrt(c)

  /** ε used for L / R / truncation — halved when sparse Linearization is on,
    * so the extra ε/2 truncation error keeps the total within ε (Lemma 2).
    */
  def epsEff: Double = if (sparse) eps / 2 else eps

  def iterations: Int = Linearized.iterationsFor(c, epsEff)

  def truncationThreshold: Double =
    if (sparse) (1 - sqrtC) * (1 - sqrtC) * epsEff else 0.0

  /** Total pair-walk budget before the ‖π_i‖² reduction. */
  def totalSamples(n: Int): Long =
    math.ceil(alpha * math.log(n.max(2)) / (epsEff * epsEff)).toLong.max(1L)
}

object ExactSimConf {
  /** Theorem 1's Bernstein constant `6/(1−√c)⁴`. */
  def paperAlpha(c: Double): Double = { val t = 1 - math.sqrt(c); 6.0 / (t * t * t * t) }

  /** Basic ExactSim of §3.1 — all optimizations off. */
  def basic(eps: Double, alpha: Double, seed: Long = 42): ExactSimConf =
    ExactSimConf(eps = eps, alpha = alpha, sparse = false, piSquared = false,
      localExploit = false, seed = seed)

  /** Optimized ExactSim — the configuration the paper evaluates by default. */
  def optimized(eps: Double, alpha: Double, seed: Long = 42): ExactSimConf =
    ExactSimConf(eps = eps, alpha = alpha, seed = seed)
}

/** Result of a single-source ExactSim query, with the accounting the benches
  * report: sample counts, deterministic-exploration volume and the memory
  * footprint of the stored hop vectors (Table 3).
  */
final case class ExactSimResult(
    scores: Array[Double],
    conf: ExactSimConf,
    walkPairs: Long,
    edgesExplored: Long,
    hopVectorBytes: Long,
    piNormSq: Double,
    millis: Long,
)

/** ExactSim (Algorithm 1 + §3.2 optimizations): probabilistic exact
  * single-source SimRank.
  *
  * Pipeline per query, all on the driver-side CSR:
  *  1. forward pass — ℓ-hop PPR vectors `π_i^ℓ` by mat-vecs on the CSR,
  *     truncated if sparse Linearization is on;
  *  2. sample allocation — `R(k) = ⌈R·π_i(k)⌉` or `⌈R·π_i(k)²/‖π_i‖²⌉`;
  *  3. D̂ estimation — Algorithm 2 or Algorithm 3, one task per node on the
  *     driver's thread pool ([[DiagEstimator.localExploit]]);
  *  4. backward pass — fold `D̂·π_i^ℓ` through `√c·Pᵀ` (eq. 8).
  */
object ExactSim {

  /** The query on `graph.csr`, with D̂ on [[DriverPool.size]] threads. */
  def singleSource(graph: GraphData, source: Int, conf: ExactSimConf): ExactSimResult =
    singleSource(graph.csr, source, conf, DriverPool.size(graph.spark.sparkContext))

  /** The query on `csr`, with D̂ on `threads` threads; the thread count does
    * not change the result.
    */
  def singleSource(csr: Csr, source: Int, conf: ExactSimConf, threads: Int): ExactSimResult = {
    Linearized.requireSource(source, csr.n)
    val t0 = System.nanoTime()
    val eng = new LocalEngine(csr)
    val fwd = Linearized.forward(eng, source, conf.c, conf.iterations, conf.truncationThreshold)

    val tasks = allocate(fwd.pi, conf.totalSamples(csr.n), conf.piSquared)
    val diag = DiagEstimator.localExploit(csr, tasks, conf.c, conf.seed,
      if (conf.localExploit) DiagEstimator.MaxLevel else 0, threads)

    val scores = Linearized.backward(eng, fwd, diag.dense(csr, conf.c), conf.c)
    scores(source) = 1.0 // S(i,i) = 1 by definition
    ExactSimResult(scores, conf, diag.walkPairs, diag.edgesExplored, fwd.hopBytes, fwd.piNormSq,
      (System.nanoTime() - t0) / 1000000)
  }

  /** Sample allocation over the support of π_i (Algorithm 1 line 8 / Lemma 3).
    * Every node in the support receives at least one pair (the ⌈·⌉).
    */
  def allocate(pi: Array[Double], r: Long, piSquared: Boolean): Seq[(Int, Long)] = {
    if (piSquared) {
      // Lemma 3: scale R down by ‖π_i‖² and distribute ∝ π_i(k)²/‖π_i‖² —
      // combined, node k receives ⌈R·π_i(k)²⌉ pairs.
      pi.indices.collect {
        case k if pi(k) > 0.0 => k -> math.ceil(r * pi(k) * pi(k)).toLong.max(1L)
      }
    } else {
      pi.indices.collect {
        case k if pi(k) > 0.0 => k -> math.ceil(r * pi(k)).toLong.max(1L)
      }
    }
  }
}
