package repro.core

import java.util.SplittableRandom
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.Csr

/** √c-walk simulation, on Spark or on the driver.
  *
  * A √c-walk moves to a uniform random in-neighbor with probability √c and
  * stops otherwise; it also stops (forcedly) at a node with no in-neighbors.
  * Two walks *meet* if they are at the same node at the same step ≥ 1.
  * A pair of walks can only meet while both go on, so the pair kernel draws
  * one joint stop test per step (both continue with probability c) and both
  * walks' in-neighbors from one `nextLong` ([[repro.graph.Csr.stepWith]]).
  *
  * Two kernels: [[pairMeetCounts]], the one pair-walk kernel behind every D̂
  * estimate, and [[walkIndex]], the MC baseline's walk index (a Spark pass).
  * D̂ work is sharded into chunks of at most [[ChunkSize]] samples, which run
  * either with `Dataset.mapPartitions` over a broadcast CSR (normally the
  * graph's [[repro.graph.GraphData.csrBroadcast]]) or on the driver's thread
  * pool over the same CSR. RNG streams are seeded per (node, chunk), so
  * results are reproducible for a fixed seed regardless of partitioning and
  * backend.
  */
object Walks {

  val ChunkSize = 8192

  /** Per-node totals of a D̂ sampling task: how many of `pairs` pair-walks met. */
  final case class MeetCount(node: Int, pairs: Long, meets: Long)

  /** D̂ tail sampling (Algorithm 3, and Algorithm 2 at prefix 0): input
    * (node, pairs, prefixLen); output per-node totals. A pair counts as a
    * meet iff the walks survive `prefixLen` forced (non-stopping) steps
    * without meeting or dying and the subsequent √c-walks meet. The caller
    * scales by `c^prefixLen`; at prefix 0 the meet fraction's complement is
    * the Algorithm-2 estimate of D(k,k).
    *
    * The tasks are split into [[chunks]], each run by [[chunkMeets]], and the
    * driver sums the per-chunk counts per node; `pairs` comes from the task
    * list. The backend is [[DiagEstimator.runsInProcess]]'s choice for the
    * planned pairs.
    */
  def pairMeetCounts(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long, Int)],
                     c: Double, seed: Long): Map[Int, MeetCount] =
    pairMeetCountsOn(spark, csr, tasks, c, seed,
      DiagEstimator.runsInProcess(spark, tasks.iterator.map(_._2).sum))

  /** [[pairMeetCounts]] on a given backend. In-process, the chunks run on the
    * driver's pool of `defaultParallelism` threads and no Spark job starts.
    * Otherwise they are `parallelize`d into one Dataset (no shuffle) in about
    * one partition per `4·ChunkSize` planned pairs, at least
    * `defaultParallelism` and at most 512. Both give the same counts.
    */
  private[core] def pairMeetCountsOn(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long, Int)],
                                     c: Double, seed: Long, inProcess: Boolean): Map[Int, MeetCount] = {
    import spark.implicits._
    val todo = chunks(tasks)
    if (todo.isEmpty) return Map.empty
    val sc = spark.sparkContext
    val perChunk =
      if (inProcess) {
        val g = csr.value
        DriverPool.map(todo, sc.defaultParallelism) { case (node, pairs, prefix, chunk) =>
          (node, chunkMeets(g, node, pairs, prefix, chunk, c, seed))
        }
      } else {
        val planned = tasks.iterator.map(_._2).sum
        val parts = math.min(512L, math.max(sc.defaultParallelism.toLong, planned / (4L * ChunkSize) + 1)).toInt
        spark.createDataset(sc.parallelize(todo, parts)).mapPartitions { it =>
          val g = csr.value
          it.map { case (node, pairs, prefix, chunk) => (node, chunkMeets(g, node, pairs, prefix, chunk, c, seed)) }
        }.collect()
      }
    val pairsOf = tasks.groupMapReduce(_._1)(_._2)(_ + _)
    perChunk.groupMapReduce(_._1)(_._2)(_ + _)
      .map { case (node, m) => node -> MeetCount(node, pairsOf(node), m) }
  }

  /** A task list's chunks `(node, pairs, prefix, chunk)`: each task's pairs
    * in runs of at most [[ChunkSize]], numbered from 0 within the task.
    */
  private def chunks(tasks: Seq[(Int, Long, Int)]): IndexedSeq[(Int, Long, Int, Int)] =
    tasks.toIndexedSeq.flatMap { case (node, pairs, prefix) =>
      val full = (pairs / ChunkSize).toInt
      val rem = pairs - full.toLong * ChunkSize
      (0 until full).map(ci => (node, ChunkSize.toLong, prefix, ci)) ++
        (if (rem > 0) Seq((node, rem, prefix, full)) else Nil)
    }

  /** Meets among one chunk's `pairs` tail samples from `node`, drawn from the
    * chunk's own stream `mix(seed, node, chunk)`: the per-chunk loop of both
    * backends of [[pairMeetCountsOn]].
    */
  private def chunkMeets(g: Csr, node: Int, pairs: Long, prefix: Int, chunk: Int, c: Double, seed: Long): Long = {
    val rng = new SplittableRandom(mix(seed, node, chunk))
    var meets = 0L
    var r = 0L
    while (r < pairs) {
      if (simulateTailPairMeet(g, node, prefix, c, rng)) meets += 1
      r += 1
    }
    meets
  }

  /** One Algorithm-3 tail sample from `k`: both walks take `prefix` forced
    * steps; pairs that die or meet inside the prefix contribute no meet
    * (those meets are covered by the deterministic Z sums). Afterwards the
    * pair behaves as two plain √c-walks, so at prefix 0 this is
    * `simulatePairMeet(g, k, k, …)` draw for draw. Each forced step draws
    * both walks' in-neighbors from one `nextLong`, as [[simulatePairMeet]]
    * does.
    */
  def simulateTailPairMeet(g: Csr, k: Int, prefix: Int, c: Double, rng: SplittableRandom): Boolean = {
    var a = k
    var b = k
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

  /** MC-index walk trace row: node's r-th √c-walk visited `pos` at `step`. */
  final case class WalkPos(node: Long, walk: Int, step: Int, pos: Long)

  /** Build the Fogaras–Rácz walk index: `r` √c-walks from every node, stored
    * as a (node, walk, step, pos) DataFrame including step 0. This is the MC
    * baseline's index; its row count × 28 bytes is its index size.
    */
  def walkIndex(spark: SparkSession, csr: Broadcast[Csr], n: Int, r: Int,
                c: Double, seed: Long): DataFrame = {
    import spark.implicits._
    val parts = math.min(256, math.max(spark.sparkContext.defaultParallelism, n * r / 200000 + 1))
    spark.range(0, n.toLong, 1, parts).as[Long].mapPartitions { it =>
      val g = csr.value
      val sqrtC = math.sqrt(c)
      it.flatMap { node =>
        val rng = new SplittableRandom(mix(seed, node.toInt, 0))
        (0 until r).iterator.flatMap { w =>
          var pos = node.toInt
          var step = 0
          val buf = scala.collection.mutable.ArrayBuffer(WalkPos(node, w, 0, pos))
          var alive = true
          while (alive && rng.nextDouble() < sqrtC) {
            pos = g.step(pos, rng)
            if (pos < 0) alive = false
            else { step += 1; buf += WalkPos(node, w, step, pos) }
          }
          buf
        }
      }
    }.toDF()
  }

  /** Splitmix-style seed mixing so per-task streams are independent. */
  def mix(seed: Long, a: Int, b: Int): Long = {
    var z = seed + 0x9e3779b97f4a7c15L * (a + 1) + 0xbf58476d1ce4e5b9L * (b + 1)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
