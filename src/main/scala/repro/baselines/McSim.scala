package repro.baselines

import java.util.SplittableRandom
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Linearized, Walks}
import repro.graph.GraphData

/** MC (Fogaras & Rácz): index of `r` √c-walks per node; `S(i,j)` is estimated
  * by the fraction of same-index walk pairs from `v_i` and `v_j` that meet
  * (same node, same step).
  *
  * The index is a cached DataFrame of (node, walk, step, pos) rows, built by
  * a Spark pass over the CSR broadcast to the executors; this is the only
  * code that ships the CSR off the driver. A single-source query is a
  * Catalyst join of the source's trace against the whole index on
  * (walk, step, pos) — dedup per (node, walk) — count / r.
  */
object McSim {

  final case class Index(walks: DataFrame, r: Int, rows: Long) {
    /** 28 bytes per trace row: node 8, walk 4, step 4, pos 8 (+ slack). */
    def bytes: Long = rows * 28L
    def unpersist(): Unit = walks.unpersist()
  }

  /** Walk trace row: node's r-th √c-walk visited `pos` at `step`. */
  final case class WalkPos(node: Long, walk: Int, step: Int, pos: Long)

  /** Build the Fogaras–Rácz walk index: `r` √c-walks from every node, stored
    * as a (node, walk, step, pos) DataFrame including step 0. Its row count
    * × 28 bytes is the index size. The CSR is broadcast once per call; Spark's
    * ContextCleaner releases it with the DataFrame.
    */
  def walkIndex(graph: GraphData, r: Int, c: Double, seed: Long): DataFrame = {
    val spark = graph.spark
    import spark.implicits._
    val n = graph.n
    val csr = spark.sparkContext.broadcast(graph.csr)
    val parts = math.min(256, math.max(spark.sparkContext.defaultParallelism, n * r / 200000 + 1))
    spark.range(0, n.toLong, 1, parts).as[Long].mapPartitions { it =>
      val g = csr.value
      val sqrtC = math.sqrt(c)
      it.flatMap { node =>
        val rng = new SplittableRandom(Walks.mix(seed, node.toInt, 0))
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

  def buildIndex(graph: GraphData, c: Double, r: Int, seed: Long = 42): Index = {
    require(r > 0, s"walks per node must be positive, got $r")
    val walks = walkIndex(graph, r, c, seed).cache()
    Index(walks, r, walks.count())
  }

  def singleSource(graph: GraphData, source: Int, index: Index): Array[Double] = {
    Linearized.requireSource(source, graph.n)
    val src = index.walks.where(col("node") === source.toLong)
      .select(col("walk"), col("step"), col("pos"))
    val met = index.walks
      .join(broadcast(src), Seq("walk", "step", "pos"))
      .select(col("node"), col("walk")).distinct()
      .groupBy("node").agg(count(lit(1)).as("meets"))
    val scores = new Array[Double](graph.n)
    met.collect().foreach(row => scores(row.getLong(0).toInt) = row.getLong(1).toDouble / index.r)
    scores(source) = 1.0
    scores
  }
}
