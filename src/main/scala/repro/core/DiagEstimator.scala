package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.graph.Csr

import scala.collection.mutable

/** The estimator for the diagonal correction matrix `D`: Algorithm 3, of which
  * Algorithm 2 is the zero-level case.
  *
  * [[localExploit]] first computes the first-meet probabilities
  * `Z_ℓ(k) = Σ_q Z_ℓ(k,q)` deterministically, level by level via the Lemma-4
  * recursion, charging every traversed edge against the budget `2R(k)/√c`
  * (the expected step cost of plain sampling) — phase A. It then estimates
  * the tail `Σ_{ℓ>ℓ(k)} Z_ℓ(k)` with walks whose first `ℓ(k)` steps are
  * non-stopping, scaled by `c^{ℓ(k)}` — phase B. With `maxLevel = 0` no level
  * is computed, `zSum = 0`, and the tail walks are plain √c-walk pairs from
  * `(k, k)`: Algorithm 2, where `D̂(k,k)` is the fraction of `R(k)` pairs that
  * never meet.
  *
  * Both phases run over the tasks `(k, R(k))` of the non-trivial nodes, one
  * per node, with the graph's CSR (the paper's §3.2 parallelization), as one
  * [[Walks.poolPass]] on the driver's thread pool. Phase A is one
  * edge-budgeted task per node (nothing at zero levels); phase B plans each
  * node's `(k, R(k), ℓ(k))` into [[Walks.items]], so a hub node with a huge
  * `R(k)` cannot serialize onto one thread, and draws its forced prefix in
  * aggregate. Nodes start largest `R(k)` first; the worker that ends a
  * node's phase A plans and queues that node's items, so its walks start
  * then, beside the other nodes' phase A, with no barrier between the
  * phases. Every thread count runs the same items with the same
  * per-(node, item) RNG streams and adds integer meet counts, so D̂ is
  * bit-identical on any pool. No Spark job is launched.
  */
object DiagEstimator {

  /** Per-node estimate plus accounting used by benches. */
  final case class DiagResult(dhat: Map[Int, Double], walkPairs: Long, edgesExplored: Long) {

    /** D̂ as a length-n vector: the estimate of every task node, else the
      * trivial value, else `1 − c`.
      */
    def dense(g: Csr, c: Double): Array[Double] = {
      val out = Array.tabulate(g.n)(k => trivial(g, k, c).getOrElse(1.0 - c))
      dhat.foreach { case (k, v) => out(k) = v }
      out
    }
  }

  /** Per-node deterministic budget cap (edge traversals). The paper's budget
    * is `2R(k)/√c`, which for hub nodes at ε_min can reach 10⁸⁺ sequential
    * accumulator updates in one task; the cap bounds per-node latency while
    * keeping the estimator unbiased (the sampled tail covers whatever the
    * deterministic part did not), at the cost of a little extra variance on
    * those hubs (DESIGN.md, deviations).
    */
  val MaxEdgesPerNode: Long = 2000000L

  /** Trivial exact values of Algorithm 3 lines 1–4. */
  def trivial(g: Csr, k: Int, c: Double): Option[Double] = g.inDeg(k) match {
    case 0 => Some(1.0)
    case 1 => Some(1.0 - c)
    case _ => None
  }

  /** Default level cap of phase A. */
  val MaxLevel: Int = 30

  /** Phase A's edge budget for a node with `rk` samples:
    * `min(2R(k)/√c, MaxEdgesPerNode)`.
    */
  def edgeBudget(rk: Long, c: Double): Long =
    math.min((2.0 * rk / math.sqrt(c)).toLong, MaxEdgesPerNode)

  /** Result of the deterministic phase for one node. */
  final case class Deterministic(zSum: Double, level: Int, edges: Long)

  /** Algorithm 3 applied to every task node of `g`; `maxLevel = 0` gives
    * Algorithm 2. Runs on the driver's pool of `threads` threads (the thread
    * count does not change D̂) and launches no Spark job. A node given more
    * than one task, and a task of more than `Int.MaxValue` chunks, are
    * rejected before any phase A runs.
    */
  def localExploit(g: Csr, tasks: Seq[(Int, Long)], c: Double, seed: Long, maxLevel: Int,
                   threads: Int): DiagResult = {
    val seen = new java.util.BitSet(g.n)
    tasks.foreach { case (k, _) => require(!seen.get(k), s"node $k has more than one task"); seen.set(k) }
    val (triv, work) = tasks.toIndexedSeq.partition { case (k, _) => trivial(g, k, c).isDefined }
    val dhat = Map.newBuilder[Int, Double]
    triv.foreach { case (k, _) => dhat += k -> trivial(g, k, c).get }
    if (work.isEmpty) return DiagResult(dhat.result(), 0L, 0L)
    work.foreach { case (k, rk) => Walks.requirePlannable(k, rk) } // before any phase A runs

    // One pool pass: a worker runs a node's phase A (deterministic
    // exploitation, budget-capped), then plans and queues its tail items.
    // meets(i) is task i's tail meets, or −1 if it planned no item.
    val phaseA = new Array[Deterministic](work.size)
    val meets = Walks.poolPass(g, work, c, seed, threads) { i =>
      val (k, rk) = work(i)
      phaseA(i) = deterministicPhase(g, k, edgeBudget(rk, c), c, maxLevel)
      phaseA(i).level
    }

    var edges = 0L
    work.indices.foreach { i =>
      val (k, rk) = work(i)
      val Deterministic(zSum, level, e) = phaseA(i)
      val tail = if (meets(i) > 0) math.pow(c, level) * meets(i).toDouble / rk else 0.0
      dhat += k -> (1.0 - zSum - tail)
      edges += e
    }
    DiagResult(dhat.result(), work.iterator.map(_._2).sum, edges)
  }

  /** [[localExploit]] on `csr.value` with [[DriverPool.size]] threads. Its
    * only caller is perfbench's `TracedQuery`; both go once that replica of
    * the query is deleted.
    */
  def localExploit(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long)],
                   c: Double, seed: Long): DiagResult =
    localExploit(csr.value, tasks, c, seed, MaxLevel, DriverPool.size(spark.sparkContext))

  /** Thrown inside the level computation when the edge budget is exhausted;
    * the partially computed level is discarded (ℓ(k) = completed levels).
    */
  private final class BudgetExceeded extends RuntimeException(null, null, false, false)

  /** A sparse row over node ids: `vals(j)` is the entry of node `ids(j)`. */
  private final class Row(val ids: Array[Int], val vals: Array[Double])

  /** A dense accumulator over `0 until n` with a touched list: [[add]] is
    * O(1), and [[drain]] returns the touched entries as a [[Row]] (in first-
    * touch order) and clears exactly those, so reuse costs no length-n pass.
    */
  private final class Accumulator(n: Int) {
    private val acc = new Array[Double](n)
    private val mark = new Array[Boolean](n)
    private val touched = new Array[Int](n)
    private var size = 0

    def add(i: Int, v: Double): Unit = {
      if (!mark(i)) { mark(i) = true; touched(size) = i; size += 1 }
      acc(i) += v
    }

    def drain(): Row = {
      val ids = java.util.Arrays.copyOf(touched, size)
      val vals = new Array[Double](size)
      var j = 0
      while (j < size) { vals(j) = acc(ids(j)); j += 1 }
      clear()
      new Row(ids, vals)
    }

    def clear(): Unit = {
      var j = 0
      while (j < size) { val i = touched(j); acc(i) = 0.0; mark(i) = false; j += 1 }
      size = 0
    }
  }

  /** Phase A's per-thread working set over `0 until n`: one accumulator for
    * the `(Pᵀ)^ℓ(q,·)` expansion, one for `Z_ℓ(k,·)`, and the memo of each
    * node's levels with the list of nodes it holds.
    */
  private final class Workspace(val n: Int) {
    val dist = new Accumulator(n)
    val z = new Accumulator(n)
    val memo = new Array[mutable.ArrayBuffer[Row]](n)
    val memoized = new Array[Int](n)
    var memoSize = 0

    def clear(): Unit = {
      dist.clear(); z.clear()
      var j = 0
      while (j < memoSize) { memo(memoized(j)) = null; j += 1 }
      memoSize = 0
    }
  }

  private val workspaces = new ThreadLocal[Workspace]

  /** This thread's workspace, replaced by a larger one when `n` outgrows it. */
  private def workspaceFor(n: Int): Workspace = {
    val s = workspaces.get
    if (s != null && s.n >= n) s
    else { val fresh = new Workspace(n); workspaces.set(fresh); fresh }
  }

  /** The deterministic part of Algorithm 3 for one node: completed-level
    * first-meeting mass `Σ_{ℓ≤ℓ(k)} Z_ℓ(k)`, the reached level, and the edges
    * traversed. The edge `budget` (normally [[edgeBudget]]) is enforced at
    * edge granularity — mid-level overruns abort and discard that level.
    * Each memoized level `(Pᵀ)^ℓ(q,·)` and each `Z_ℓ(k,·)` is a compact
    * sparse row, built in a dense per-thread accumulator; `maxLevel = 0`
    * returns at once.
    */
  def deterministicPhase(g: Csr, k: Int, budget: Long, c: Double, maxLevel: Int): Deterministic = {
    if (maxLevel == 0) return Deterministic(0.0, 0, 0L)
    val s = workspaceFor(g.n)
    try levels(g, k, budget, c, maxLevel, s)
    finally s.clear()
  }

  private def levels(g: Csr, k: Int, budget: Long, c: Double, maxLevel: Int, s: Workspace): Deterministic = {
    var edges = 0L
    // Memoized non-stop transition distributions: s.memo(q)(ℓ) = (Pᵀ)^ℓ(q,·).
    def distOf(q: Int, ell: Int): Row = {
      var levels = s.memo(q)
      if (levels == null) {
        levels = mutable.ArrayBuffer(new Row(Array(q), Array(1.0)))
        s.memo(q) = levels
        s.memoized(s.memoSize) = q
        s.memoSize += 1
      }
      while (levels.length <= ell) {
        val prev = levels.last
        var j = 0
        while (j < prev.ids.length) {
          val x = prev.ids(j)
          val d = g.inDeg(x)
          if (d > 0) {
            val w = prev.vals(j) / d
            var i = g.inOff(x)
            val end = g.inOff(x + 1)
            while (i < end) {
              s.dist.add(g.inAdj(i), w)
              edges += 1
              if (edges > budget) throw new BudgetExceeded
              i += 1
            }
          }
          j += 1
        }
        levels += s.dist.drain()
      }
      levels(ell)
    }

    // First-meeting rows Z_ℓ(k,·) for completed levels ℓ = 1..ℓ(k).
    val zRows = mutable.ArrayBuffer.empty[Row]
    var zSum = 0.0
    var completed = 0
    var exhausted = false
    while (!exhausted && completed < maxLevel) {
      val ell = completed + 1
      try {
        val wk = distOf(k, ell)
        if (wk.ids.isEmpty) {
          // No surviving ℓ-step paths ⇒ no meets at this or any deeper level.
          return Deterministic(zSum, maxLevel, edges)
        }
        val cl = math.pow(c, ell)
        var j = 0
        while (j < wk.ids.length) { val p = wk.vals(j); s.z.add(wk.ids(j), cl * p * p); j += 1 }
        var lp = 1
        while (lp <= ell - 1) {
          val zPrev = zRows(ell - lp - 1) // Z_{ℓ−ℓ'}(k,·): rows are 1-indexed at idx-1
          val clp = math.pow(c, lp)
          var jp = 0
          while (jp < zPrev.ids.length) {
            // Every touched entry is expanded, even one that cancelled to
            // ±0.0, so the edges explored depend only on the graph.
            val zv = zPrev.vals(jp)
            val dq = distOf(zPrev.ids(jp), lp)
            var i = 0
            while (i < dq.ids.length) { val w = dq.vals(i); s.z.add(dq.ids(i), -(clp * w * w * zv)); i += 1 }
            jp += 1
          }
          lp += 1
        }
        val z = s.z.drain()
        zRows += z
        zSum += z.vals.sum
        completed = ell
        if (edges >= budget) exhausted = true
      } catch {
        case _: BudgetExceeded => exhausted = true // discard the partial level
      }
    }
    Deterministic(zSum, completed, edges)
  }
}
