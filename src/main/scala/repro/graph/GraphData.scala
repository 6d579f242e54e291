package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A directed graph held as a Spark DataFrame of edges.
  *
  * `edges` has columns `src: Long`, `dst: Long` (src ∈ I(dst)), no self-loops,
  * no duplicates. Undirected input graphs are materialized with both
  * directions present, matching the SimRank convention of the paper.
  *
  * The class derives, lazily and cached:
  *  - `pEdges`: edges weighted by `w = 1/d_in(dst)` — the nonzeros of the
  *    reverse transition matrix `P` (`P(i,j) = 1/d_in(j)` for `i∈I(j)`);
  *  - `csr`: a driver-side CSR of in-adjacency, collected once (graphs here
  *    are ≤ a few M edges). ExactSim and the linearized baselines run on it
  *    alone: its mat-vecs and D̂'s walks.
  */
final class GraphData(val spark: SparkSession, val name: String, val n: Int, rawEdges: DataFrame) {

  /** Canonical cached edge list (src, dst). */
  lazy val edges: DataFrame = {
    val parts = math.max(4, (n / 20000) * 4)
    val e = rawEdges
      .select(col("src").cast("long"), col("dst").cast("long"))
      .where(col("src") =!= col("dst"))
      .distinct()
      .repartition(parts)
      .cache()
    e.count() // materialize so downstream timings exclude generation
    e
  }

  lazy val m: Long = edges.count()

  /** In-degree per node: (id, deg) — nodes with in-degree 0 are absent. */
  lazy val inDegrees: DataFrame =
    edges.groupBy(col("dst").as("id")).agg(count(lit(1)).as("deg")).cache()

  /** Nonzeros of P: (src, dst, w) with w = 1/d_in(dst). */
  lazy val pEdges: DataFrame = {
    val p = edges
      .join(inDegrees.withColumnRenamed("id", "dst"), "dst")
      .select(col("src"), col("dst"), (lit(1.0) / col("deg")).as("w"))
      .cache()
    p.count()
    p
  }

  /** Driver-side CSR of the same graph (for walks and mat-vecs). Every id
    * must lie in `[0, n)`; it is checked on the `Long` value, before it is
    * narrowed to an `Int`, so an id ≥ 2³¹ cannot wrap onto a valid node.
    */
  lazy val csr: Csr = {
    def id(src: Long, dst: Long, v: Long): Int = {
      require(v >= 0 && v < n, s"edge ($src -> $dst): node id $v out of range [0, $n)")
      v.toInt
    }
    val pairs = edges
      .collect()
      .map { r => val (s, d) = (r.getLong(0), r.getLong(1)); (id(s, d, s), id(s, d, d)) }
    Csr.fromEdges(n, pairs.toIndexedSeq)
  }

  /** Approximate in-memory size of the edge list in bytes (two 4-byte ids per
    * directed edge) — the "Graph size" row of the paper's Table 3.
    */
  def graphBytes: Long = m * 8L

  def unpersistAll(): Unit = {
    edges.unpersist(); inDegrees.unpersist(); pEdges.unpersist()
  }

  override def toString: String = s"GraphData($name, n=$n, m=$m)"
}

object GraphData {

  /** Build from an explicit local edge list (tests, closed-form graphs). */
  def fromLocal(spark: SparkSession, name: String, n: Int, pairs: Seq[(Int, Int)],
                undirected: Boolean = false): GraphData = {
    import spark.implicits._
    val dir = if (undirected) pairs.flatMap(e => Seq(e, e.swap)) else pairs
    val df = dir.map { case (s, d) => (s.toLong, d.toLong) }.toDF("src", "dst")
    new GraphData(spark, name, n, df)
  }
}
