package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Walks
import repro.graph.GraphData

/** MC (Fogaras & Rácz): index of `r` √c-walks per node; `S(i,j)` is estimated
  * by the fraction of same-index walk pairs from `v_i` and `v_j` that meet
  * (same node, same step).
  *
  * The index is a cached DataFrame of (node, walk, step, pos) rows; a
  * single-source query is a Catalyst join of the source's trace against the
  * whole index on (walk, step, pos) — dedup per (node, walk) — count / r.
  */
object McSim {

  final case class Index(walks: DataFrame, n: Int, r: Int, rows: Long, prepMillis: Long) {
    /** 28 bytes per trace row: node 8, walk 4, step 4, pos 8 (+ slack). */
    def bytes: Long = rows * 28L
    def unpersist(): Unit = walks.unpersist()
  }

  def buildIndex(graph: GraphData, c: Double, r: Int, seed: Long = 42): Index = {
    val t0 = System.nanoTime()
    val walks = Walks.walkIndex(graph.spark, graph.csrBroadcast, graph.n, r, c, seed).cache()
    val rows = walks.count()
    Index(walks, graph.n, r, rows, (System.nanoTime() - t0) / 1000000)
  }

  def singleSource(graph: GraphData, source: Int, index: Index): Result = {
    val t0 = System.nanoTime()
    val src = index.walks.where(col("node") === source.toLong)
      .select(col("walk"), col("step"), col("pos"))
    val met = index.walks
      .join(broadcast(src), Seq("walk", "step", "pos"))
      .select(col("node"), col("walk")).distinct()
      .groupBy("node").agg(count(lit(1)).as("meets"))
    val scores = new Array[Double](graph.n)
    met.collect().foreach(row => scores(row.getLong(0).toInt) = row.getLong(1).toDouble / index.r)
    scores(source) = 1.0
    Result(scores, (System.nanoTime() - t0) / 1000000)
  }
}
