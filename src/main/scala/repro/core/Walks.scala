package repro.core

import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicLongArray
import repro.graph.Csr

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** √c-walk simulation on the driver: the pair-walk kernel behind every D̂
  * estimate.
  *
  * A √c-walk moves to a uniform random in-neighbor with probability √c and
  * stops otherwise; it also stops (forcedly) at a node with no in-neighbors.
  * Two walks *meet* if they are at the same node at the same step ≥ 1.
  * A pair of walks can only meet while both go on, so the pair kernel draws
  * one joint stop test per step (both continue with probability c) and both
  * walks' in-neighbors from one `nextLong` ([[repro.graph.Csr.stepWith]]).
  *
  * D̂ work runs in one [[poolPass]] on the driver's thread pool over the
  * driver-side CSR: each task is planned into [[Item]]s and its items
  * queued as soon as its forced prefix is known. A task without a forced
  * prefix is cut into chunks of at most [[ChunkSize]] pairs. The forced
  * prefix of an Algorithm-3 task is drawn in aggregate: the pairs that
  * stand on one state are split over its successor states in one exact draw
  * ([[Splitter]]), and only the groups that splitting no longer pays for are
  * walked pair by pair. RNG streams are seeded per (node, item), so results
  * are reproducible for a fixed seed regardless of the thread count.
  */
object Walks {

  val ChunkSize = 8192

  /** A group of `n` pairs on a state with `m` successor cells is split while
    * `n ≥ MinPairsPerCell · m`; below that, walking each pair one step costs
    * less than drawing its cell. Timed on gq-paper's three largest hub
    * tasks, serially and on 4 threads, against 1/8 to 16 (CHANGES.md).
    */
  val MinPairsPerCell: Long = 4L

  /** One unit of D̂ tail work: `pairs` samples of `node`'s task that stand on
    * the state (a, b) after `depth` of the task's `prefix` forced steps, drawn
    * from the stream `mix(seed, node, stream)`. A task without a forced
    * prefix has one item per chunk, `(node, node, node, 0, 0, ≤ ChunkSize,
    * chunk)`.
    */
  final case class Item(node: Int, a: Int, b: Int, depth: Int, prefix: Int, pairs: Long, stream: Int)

  /** D̂'s tail on the driver's pool of `threads` threads, as one
    * [[DriverPool.run]] pass with one root per task, largest `pairs` first
    * (longest-processing-time-first list scheduling). Task i's root calls
    * `prefixOf(i)` (phase A, in [[DiagEstimator.localExploit]]), plans the
    * task's [[items]] and queues them, so a node's walks start as soon as
    * its own prefix is known; idle workers run the queued items. Returns the
    * meets of task i at i. The caller checks [[requirePlannable]] first.
    */
  private[core] def poolPass(g: Csr, tasks: IndexedSeq[(Int, Long)], c: Double, seed: Long, threads: Int)
                            (prefixOf: Int => Int): Array[Long] = {
    val n = tasks.size
    val meets = new AtomicLongArray(n)
    // Sort keys: pairs (capped at 2³² − 1) above the complemented index, so
    // the last key is the largest task, the first in task order on ties.
    val keys = Array.tabulate(n)(i => (math.min(tasks(i)._2, 0xffffffffL) << 31) | (Int.MaxValue - i))
    java.util.Arrays.sort(keys)
    val roots = Array.tabulate[DriverPool.Root](n) { j =>
      val i = Int.MaxValue - (keys(n - 1 - j) & Int.MaxValue).toInt
      () => {
        val (node, pairs) = tasks(i)
        items(g, node, pairs, prefixOf(i), seed)
          .map(item => () => { meets.addAndGet(i, itemMeets(g, item, c, seed)); () })
      }
    }
    DriverPool.run(ArraySeq.unsafeWrapArray(roots), threads)
    Array.tabulate(n)(meets.get)
  }

  /** Rejects a task that would need more than `Int.MaxValue` chunks, before
    * anything is drawn.
    */
  private[core] def requirePlannable(node: Int, pairs: Long): Unit =
    require((pairs - 1) / ChunkSize < Int.MaxValue,
      s"node $node: R(k) = $pairs pairs need more than ${Int.MaxValue} chunks of $ChunkSize")

  /** One task's items, numbered from 0. A group of pairs on a state is
    * split on the driver, with the task's planning stream
    * `mix(seed, node, −1)`, while its prefix is not done and its cells would
    * average at least [[ChunkSize]] pairs; every other group is cut into
    * items of at most [[ChunkSize]] pairs. So a task at prefix 0 gives
    * exactly its chunks, and no hub lands on a single thread. A task that
    * would need more than `Int.MaxValue` chunks is rejected before anything
    * is drawn.
    */
  private[core] def items(g: Csr, node: Int, pairs: Long, prefix: Int, seed: Long): IndexedSeq[Item] = {
    requirePlannable(node, pairs)
    val planner = new Planner(g, node, prefix, new SplittableRandom(mix(seed, node, -1)))
    planner.land(node, node, 0, pairs)
    planner.out.toIndexedSeq
  }

  /** Meets among one item's pairs, drawn from the item's own stream
    * `mix(seed, node, stream)`: the per-item procedure of [[poolPass]]
    * ([[ItemRun]]). At prefix 0 that is `pairs` calls of
    * `simulatePairMeet(k, k)`.
    */
  private[core] def itemMeets(g: Csr, item: Item, c: Double, seed: Long): Long = {
    val run = new ItemRun(g, item.prefix, c, new SplittableRandom(mix(seed, item.node, item.stream)))
    run.land(item.a, item.b, item.depth, item.pairs)
    run.meets
  }

  /** The cells `d_in(a)·d_in(b)` of a forced step from (a, b). */
  private def cells(g: Csr, a: Int, b: Int): Long = g.inDeg(a).toLong * g.inDeg(b)

  /** Whether `n` pairs on (a, b) are split rather than walked. */
  private def splitPays(g: Csr, a: Int, b: Int, n: Long): Boolean = {
    val m = cells(g, a, b)
    m > 0 && m <= Int.MaxValue && n >= MinPairsPerCell * m
  }

  /** Draws one forced step for many pairs at once, exactly. Every pair on
    * (a, b) moves to a uniform cell of `I(a)×I(b)`; the counts per cell are
    * drawn by halving the cells' index range, `2^⌈log₂ m⌉` wide, where each
    * half takes `Bin(x, ½)` of the range's `x` pairs ([[halfBinomial]]). The
    * count that falls past the `m` real cells is split again from the full
    * range (rejection), so every real cell is exactly equally likely, as in
    * the per-pair step, and no floating-point sampler is involved. What
    * becomes of the pairs on each successor is [[land]]'s business.
    */
  private[core] abstract class Splitter(g: Csr, rng: SplittableRandom) {
    private var reservoir = 0L // `left` unused fair bits, in the low positions
    private var left = 0

    /** Takes `n` pairs that stand on (a, b) after `depth` forced steps. */
    def land(a: Int, b: Int, depth: Int, n: Long): Unit

    /** `k < 64` fair bits, from the reservoir, refilled from the stream. */
    private def bits(k: Int): Long =
      if (k <= left) {
        val out = reservoir & ((1L << k) - 1)
        reservoir >>>= k; left -= k
        out
      } else {
        val low = reservoir
        val have = left
        reservoir = rng.nextLong(); left = 64
        low | (bits(k - have) << have)
      }

    /** `Bin(n, ½)`: the ones among `n` fair bits, whole words straight from
      * the stream and the rest from the reservoir.
      */
    def halfBinomial(n: Long): Long = {
      var ones = 0L
      var r = n
      while (r >= 64) { ones += java.lang.Long.bitCount(rng.nextLong()); r -= 64 }
      ones + java.lang.Long.bitCount(bits(r.toInt))
    }

    /** One forced step of `n` pairs from (a, b) at `depth`: [[land]]`(a′, b′,
      * depth + 1, x)` for each cell, in cell order, that `x > 0` pairs land
      * on, unless a′ = b′ (met inside the prefix) or either has no
      * in-neighbor (dead end); neither can meet later, so they are dropped.
      */
    def split(a: Int, b: Int, depth: Int, n: Long): Unit = {
      val m = cells(g, a, b)
      val db = g.inDeg(b)
      val offA = g.inOff(a)
      val offB = g.inOff(b)
      def put(cell: Long, x: Long): Unit = {
        val i = cell.toInt
        val a2 = g.inAdj(offA + i / db)
        val b2 = g.inAdj(offB + i % db)
        if (a2 != b2 && g.inDeg(a2) > 0 && g.inDeg(b2) > 0) land(a2, b2, depth + 1, x)
      }
      // Halve `x` pairs over cells [lo, lo + width); returns the count past m.
      // A lone pair takes a uniform cell of the range from log₂(width) bits,
      // which is what halving would give it.
      def spread(lo: Long, width: Long, x: Long): Long =
        if (x == 0) 0L
        else if (lo >= m) x
        else if (width == 1) { put(lo, x); 0L }
        else if (x == 1) {
          val cell = lo + bits(java.lang.Long.numberOfTrailingZeros(width))
          if (cell >= m) 1L else { put(cell, 1L); 0L }
        } else {
          val low = halfBinomial(x)
          val h = width >>> 1
          spread(lo, h, low) + spread(lo + h, h, x - low)
        }
      if (m == 0) return // a dead end: every pair is dropped
      val width = if (m == 1) 1L else java.lang.Long.highestOneBit(m - 1) << 1
      var r = n
      while (r > 0) r = spread(0L, width, r)
    }
  }

  /** One item's work: while the forced prefix is not done and splitting
    * pays, the pairs on a state are split over its successors; the rest
    * walk one by one with [[simulateTailPairMeet]] from where they stand.
    */
  private final class ItemRun(g: Csr, prefix: Int, c: Double, rng: SplittableRandom) extends Splitter(g, rng) {
    var meets = 0L

    def land(a: Int, b: Int, depth: Int, n: Long): Unit =
      if (depth < prefix && splitPays(g, a, b, n)) split(a, b, depth, n)
      else {
        var met = 0L
        var r = 0L
        while (r < n) {
          if (simulateTailPairMeet(g, a, b, prefix - depth, c, rng)) met += 1
          r += 1
        }
        meets += met
      }
  }

  /** One task's item planning ([[items]]): splits while a group's cells
    * would average a chunk, else cuts the group into chunk-sized items.
    */
  private final class Planner(g: Csr, node: Int, prefix: Int, rng: SplittableRandom) extends Splitter(g, rng) {
    val out = mutable.ArrayBuffer.empty[Item]

    def land(a: Int, b: Int, depth: Int, n: Long): Unit = {
      if (depth < prefix && splitPays(g, a, b, n) && n / cells(g, a, b) >= ChunkSize) split(a, b, depth, n)
      else {
        var done = 0L
        while (done < n) {
          val p = math.min(ChunkSize.toLong, n - done)
          out += Item(node, a, b, depth, prefix, p, out.size)
          done += p
        }
      }
    }
  }

  /** One Algorithm-3 tail sample from (a, b) with `prefix` forced steps to
    * go: both walks take them; pairs that die or meet inside the prefix
    * contribute no meet (those meets are covered by the deterministic Z
    * sums). Afterwards the pair behaves as two plain √c-walks, so at prefix 0
    * this is `simulatePairMeet(g, a, b, …)` draw for draw. Each forced step
    * draws both walks' in-neighbors from one `nextLong`, as
    * [[simulatePairMeet]] does.
    */
  def simulateTailPairMeet(g: Csr, a0: Int, b0: Int, prefix: Int, c: Double, rng: SplittableRandom): Boolean = {
    var a = a0
    var b = b0
    var step = 0
    while (step < prefix) {
      val bits = rng.nextLong()
      a = g.stepWith(a, (bits >>> 32).toInt, rng); b = g.stepWith(b, bits.toInt, rng)
      if (a < 0 || b < 0) return false // dead end inside the prefix
      if (a == b) return false         // met within ℓ(k): already accounted
      step += 1
    }
    simulatePairMeet(g, a, b, c, rng)
  }

  /** Simulate one pair of √c-walks from (a, b); true iff they meet at some
    * step ≥ 1 (the D(k,k) convention: coincidence at step 0 does not count).
    * Each step is one joint stop test — both walks continue with probability
    * `c = √c·√c`, and the pair cannot meet once either stops — then one
    * `nextLong` whose high 32 bits move walk a and low 32 bits walk b.
    */
  def simulatePairMeet(g: Csr, a0: Int, b0: Int, c: Double, rng: SplittableRandom): Boolean = {
    var a = a0
    var b = b0
    while (true) {
      if (rng.nextDouble() >= c) return false
      val bits = rng.nextLong()
      a = g.stepWith(a, (bits >>> 32).toInt, rng)
      b = g.stepWith(b, bits.toInt, rng)
      if (a < 0 || b < 0) return false // dead end: forced stop
      if (a == b) return true
    }
    false
  }

  /** Splitmix-style seed mixing so per-task streams are independent. */
  def mix(seed: Long, a: Int, b: Int): Long = {
    var z = seed + 0x9e3779b97f4a7c15L * (a + 1) + 0xbf58476d1ce4e5b9L * (b + 1)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
