package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Synthetic graph generators, deterministic in (parameters, seed).
  *
  * The paper evaluates on scale-free real-world graphs; `chungLu` reproduces
  * their power-law degree structure (which drives the ‖π‖² term of Lemma 3),
  * and the tiny fixed topologies (cycle, star, …) have closed-form SimRank
  * used by the unit tests.
  *
  * All heavy generators are Spark dataflows over `spark.range` with a fixed
  * partition count so `rand(seed)` draws are reproducible across runs.
  */
object GraphGen {

  private val Parts = 32

  /** Zipf node draw over ids 0..n-1 via the inverse CDF (id 0 is the heaviest
    * hub): for weight ∝ (k+1)^(−α) with α ∈ (0,1), the CDF is ≈ (x/n)^(1−α),
    * so a uniform `u` maps to rank `n·u^(1/(1−α))`.
    */
  private def zipfNode(u: org.apache.spark.sql.Column, n: Int, alpha: Double) = {
    require(alpha > 0 && alpha < 1, s"zipf exponent must be in (0,1), got $alpha")
    least(lit(n - 1L), greatest(lit(0L),
      floor(lit(n.toDouble) * pow(u, lit(1.0 / (1.0 - alpha)))).cast(LongType)))
  }

  /** Chung–Lu-style power-law graph: endpoints of candidate edges drawn from a
    * zipf(alpha) distribution, deduplicated. `mTarget` counts *directed* edges
    * after symmetrization for undirected graphs (approximately attained).
    */
  def chungLu(spark: SparkSession, name: String, n: Int, mTarget: Long,
              alpha: Double = 0.7, undirected: Boolean = false, seed: Long = 7): GraphData = {
    // Oversample: dedupe + self-loop removal loses some candidates (hubs collide).
    val base = if (undirected) mTarget / 2 else mTarget
    val cand = (base * 1.25).toLong
    val raw = spark.range(0, cand, 1, Parts).select(
      zipfNode(rand(seed), n, alpha).as("src"),
      // Mix a uniform endpoint in so the graph is connected-ish rather than a
      // pure hub clique: 70% zipf, 30% uniform.
      when(rand(seed + 2) < 0.7, zipfNode(rand(seed + 1), n, alpha))
        .otherwise((rand(seed + 3) * n).cast(LongType)).as("dst"),
    )
    val dir = if (undirected)
      raw.union(raw.select(col("dst").as("src"), col("src").as("dst")))
    else raw
    new GraphData(spark, name, n, dir)
  }

  // ---- Closed-form topologies (unit tests) ----------------------------------

  /** Directed cycle 0→1→…→n-1→0. Off-diagonal SimRank is exactly 0. */
  def cycle(spark: SparkSession, n: Int): GraphData =
    GraphData.fromLocal(spark, s"cycle$n", n, (0 until n).map(i => (i, (i + 1) % n)))

  /** Directed path 0→1→…→n-1. */
  def path(spark: SparkSession, n: Int): GraphData =
    GraphData.fromLocal(spark, s"path$n", n, (0 until n - 1).map(i => (i, i + 1)))

  /** Undirected star: center 0, leaves 1..n-1.
    * S(0, leaf) = 0 and S(leaf, leaf') = c exactly.
    */
  def star(spark: SparkSession, n: Int): GraphData =
    GraphData.fromLocal(spark, s"star$n", n, (1 until n).map(l => (0, l)), undirected = true)

  /** Complete undirected graph without self-loops. */
  def complete(spark: SparkSession, n: Int): GraphData =
    GraphData.fromLocal(spark, s"complete$n", n,
      (for { i <- 0 until n; j <- i + 1 until n } yield (i, j)), undirected = true)

  /** Two sinks (0, 1) sharing one parent (2): S(0,1) = c exactly. */
  def sharedParentPair(spark: SparkSession): GraphData =
    GraphData.fromLocal(spark, "pair", 3, Seq((2, 0), (2, 1)))

  /** Small deterministic pseudo-random directed graph for reference tests:
    * edges from a splitmix-seeded local RNG, so no Spark nondeterminism at all.
    */
  def localRandom(spark: SparkSession, name: String, n: Int, m: Int,
                  seed: Long = 1, undirected: Boolean = false): GraphData = {
    val rng = new java.util.SplittableRandom(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var guard = 0
    while (set.size < m && guard < m * 50) {
      val s = rng.nextInt(n); val d = rng.nextInt(n)
      if (s != d) set += ((s, d))
      guard += 1
    }
    GraphData.fromLocal(spark, name, n, set.toSeq, undirected = undirected)
  }
}
