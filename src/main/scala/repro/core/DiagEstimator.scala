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
  * per node, with the graph's CSR (the paper's §3.2 parallelization). Phase
  * A is one edge-budgeted task per node (nothing at zero levels); phase B
  * plans each node's `(k, R(k), ℓ(k))` into [[Walks.items]], so a hub node
  * with a huge `R(k)` cannot serialize onto one core, and draws its forced
  * prefix in aggregate. They run on one of two backends ([[runsInProcess]]):
  *  - in-process, with no Spark job, as one [[Walks.poolPass]] of
  *    `defaultParallelism` workers: always on a local master, and on a
  *    cluster up to [[InProcessMaxPairs]] planned pairs `Σ R(k)`. Nodes
  *    start largest `R(k)` first; the worker that ends a node's phase A
  *    plans and queues that node's items, so its walks start then, beside
  *    the other nodes' phase A, with no barrier between the phases;
  *  - otherwise each phase as one shuffle-free Spark pass: the driver-built
  *    task list is `parallelize`d into a Dataset, mapped, and collected, over
  *    the broadcast CSR. This path spreads walks over a cluster's executors.
  * Every backend and thread count runs the same items with the same
  * per-(node, item) RNG streams and adds integer meet counts, so D̂ is
  * bit-identical either way. A call launches at most two Spark jobs, at most
  * one at zero levels, and none in-process.
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

  /** Planned pairs `Σ R(k)` up to which [[localExploit]] runs in-process on
    * a cluster. One predicate covers both phases, since phase A's budget is
    * at most `2R(k)/√c` edges per node. Timed on GQ-lite with each backend
    * forced (CHANGES.md), the driver's pool finishes 200k pairs in less time
    * than the Spark pass's two-job floor, so no executors could do better;
    * from about 500k pairs on, it takes longer than that floor, and
    * executors beyond the driver's cores can pay for their jobs.
    */
  val InProcessMaxPairs: Long = 200000L

  /** Whether a D̂ of `pairs` planned pairs runs in-process. On a local master
    * the executors are the driver's own cores, so the Spark pass could only
    * add its job floor, and every D̂ runs in-process; elsewhere, up to
    * [[InProcessMaxPairs]].
    */
  private[core] def runsInProcess(spark: SparkSession, pairs: Long): Boolean =
    spark.sparkContext.isLocal || pairs <= InProcessMaxPairs

  /** Algorithm 3 applied to every task node; `maxLevel = 0` gives
    * Algorithm 2. Runs in-process or on Spark by [[runsInProcess]]. A node
    * given more than one task, and a task of more than `Int.MaxValue`
    * chunks, are rejected before any phase A runs.
    */
  def localExploit(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long)],
                   c: Double, seed: Long, maxLevel: Int = MaxLevel): DiagResult =
    localExploitOn(spark, csr, tasks, c, seed, maxLevel, inProcess = None)

  /** [[localExploit]] with the backend forced when `inProcess` is set, and
    * the in-process pool's size when `threads` is (default
    * `defaultParallelism`). Neither changes D̂.
    */
  private[core] def localExploitOn(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long)],
                                   c: Double, seed: Long, maxLevel: Int,
                                   inProcess: Option[Boolean], threads: Option[Int] = None): DiagResult = {
    import spark.implicits._
    val g = csr.value
    val seen = new java.util.BitSet(g.n)
    tasks.foreach { case (k, _) => require(!seen.get(k), s"node $k has more than one task"); seen.set(k) }
    val (triv, work) = tasks.toIndexedSeq.partition { case (k, _) => trivial(g, k, c).isDefined }
    val dhat = Map.newBuilder[Int, Double]
    triv.foreach { case (k, _) => dhat += k -> trivial(g, k, c).get }
    if (work.isEmpty) return DiagResult(dhat.result(), 0L, 0L)
    work.foreach { case (k, rk) => Walks.requirePlannable(k, rk) } // before any phase A runs
    val pairs = work.map(_._2).sum
    val sc = spark.sparkContext

    // Phase A: deterministic exploitation, one (budget-capped) task per node.
    // Phase B: tail sampling, in items. meets(i) is task i's tail meets, or
    // −1 if it planned no item.
    val (rows, meets) =
      if (inProcess.getOrElse(runsInProcess(spark, pairs))) {
        // One pool pass: a worker runs a node's phase A, then plans and queues its items.
        val rows = new Array[PhaseARow](work.size)
        val meets = Walks.poolPass(g, work, c, seed, threads.getOrElse(sc.defaultParallelism)) { i =>
          val (k, rk) = work(i)
          rows(i) = phaseARow(g, k, rk, c, maxLevel)
          rows(i)._4
        }
        (rows, meets)
      } else {
        // With zero levels every node's result is (zSum 0, level 0, edges 0),
        // so the rows are built on the driver and no phase-A job runs.
        val rows =
          if (maxLevel == 0) work.map { case (k, rk) => phaseARow(g, k, rk, c, 0) }.toArray
          else {
            val parts = math.min(512, math.max(sc.defaultParallelism, work.size / 64 + 1))
            spark.createDataset(sc.parallelize(work, parts)).mapPartitions { it =>
              val graph = csr.value
              it.map { case (k, rk) => phaseARow(graph, k, rk, c, maxLevel) }
            }.collect()
          }
        val tailTasks = rows.map { case (k, rk, _, level, _) => (k, rk, level) }.toSeq
        val tails = Walks.pairMeetCountsOn(spark, csr, tailTasks, c, seed, inProcess = false)
        (rows, rows.map { case (k, _, _, _, _) => tails.get(k).fold(-1L)(_.meets) })
      }

    var edges = 0L
    rows.indices.foreach { i =>
      val (k, rk, zSum, level, e) = rows(i)
      val tail = if (meets(i) > 0) math.pow(c, level) * meets(i).toDouble / rk else 0.0
      dhat += k -> (1.0 - zSum - tail)
      edges += e
    }
    DiagResult(dhat.result(), pairs, edges)
  }

  /** One phase-A result: (k, R(k), zSum, level, edges). */
  private type PhaseARow = (Int, Long, Double, Int, Long)

  private def phaseARow(g: Csr, k: Int, rk: Long, c: Double, maxLevel: Int): PhaseARow = {
    val d = deterministicPhase(g, k, edgeBudget(rk, c), c, maxLevel)
    (k, rk, d.zSum, d.level, d.edges)
  }

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

  /** Exact D via the deterministic recursion alone (tests): run the Lemma-4
    * levels to `depth` with an unbounded budget; the untracked tail is ≤ c^depth.
    */
  def exactByRecursion(g: Csr, k: Int, c: Double, depth: Int): Double =
    trivial(g, k, c).getOrElse(1.0 - deterministicPhase(g, k, Long.MaxValue, c, depth).zSum)
}
