package repro.linalg

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{Csr, GraphData}

/** Sparse matrix–vector products with the reverse transition matrix `P`
  * (`P(i,j) = 1/d_in(j)` for `i ∈ I(j)`).
  *
  * `mulP` advances a walk-occupancy distribution one step
  * (`x_{t+1} = P x_t`); `mulPT` is the backward/adjoint step used by the
  * linearized accumulation (eq. 6/8 of the paper).
  */
trait LinEngine {
  def n: Int
  def mulP(x: Array[Double]): Array[Double]
  def mulPT(x: Array[Double]): Array[Double]
}

/** Driver-side engine over the CSR every query already holds: the engine
  * ExactSim and the linearized baselines run on. One product is a single
  * pass over the in-adjacency, with no Spark job.
  */
final class LocalEngine(csr: Csr) extends LinEngine {
  def n: Int = csr.n
  def mulP(x: Array[Double]): Array[Double] = csr.mulP(x)
  def mulPT(x: Array[Double]): Array[Double] = csr.mulPT(x)
}

/** Catalyst engine, kept as a test oracle for [[LocalEngine]]: each product
  * is a broadcast join of the (small) vector against the cached weighted edge
  * list, followed by a grouped sum, collected back to the driver. Each
  * product launches Spark jobs, so it costs far more than the local pass over
  * the same graph; the DuckDB oracle checks its dataflow.
  */
final class SparkEngine(graph: GraphData) extends LinEngine {
  private val spark: SparkSession = graph.spark
  import spark.implicits._

  def n: Int = graph.n

  private def vecDf(x: Array[Double]): DataFrame = {
    val pairs = x.indices.collect { case i if x(i) != 0.0 => (i.toLong, x(i)) }
    spark.createDataset(pairs.toIndexedSeq).toDF("id", "v")
  }

  private def collectVec(df: DataFrame): Array[Double] = {
    val y = new Array[Double](n)
    df.collect().foreach(r => y(r.getLong(0).toInt) = r.getDouble(1))
    y
  }

  /** y(src) += w(src,dst) · x(dst): join the vector on `dst`, sum per `src`. */
  def mulP(x: Array[Double]): Array[Double] = collectVec(
    graph.pEdges
      .join(broadcast(vecDf(x)).withColumnRenamed("id", "dst"), "dst")
      .groupBy(col("src").as("id"))
      .agg(sum(col("w") * col("v")).as("v"))
  )

  /** y(dst) += w(src,dst) · x(src): join the vector on `src`, sum per `dst`. */
  def mulPT(x: Array[Double]): Array[Double] = collectVec(
    graph.pEdges
      .join(broadcast(vecDf(x)).withColumnRenamed("id", "src"), "src")
      .groupBy(col("dst").as("id"))
      .agg(sum(col("w") * col("v")).as("v"))
  )
}
