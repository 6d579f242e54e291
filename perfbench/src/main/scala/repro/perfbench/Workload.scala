package repro.perfbench

import repro.core.{ExactSimConf, PowerMethod}
import repro.eval.{Datasets, Harness}
import repro.graph.GraphData

/** One benchmark workload: a dataset, an ExactSim configuration and a number
  * of closed-loop clients. Every query is optimized ExactSim with c = 0.6.
  *
  * @param sources    how many query sources `Harness.querySources` draws from
  *                   the run's seed; clients take them round-robin
  * @param denseTruth ground truth from the dense Power Method (§4.1); else
  *                   ExactSim at ε/10 with other walk seeds (§4.2)
  */
final case class Workload(name: String, spec: Datasets.Spec, eps: Double, alpha: Double,
                          clients: Int, sources: Int, denseTruth: Boolean) {

  /** The query configuration for one source; its walk seed depends on the
    * source only, so a repeated source gives the same scores.
    */
  def conf(source: Int): ExactSimConf = ExactSimConf.optimized(eps, alpha, seed = 100L + source)

  /** Ground-truth score columns for `sources`. */
  def groundTruth(graph: GraphData, sources: Seq[Int]): Map[Int, Array[Double]] =
    if (denseTruth) {
      val s = PowerMethod.simrank(graph.csr, Harness.C, 40)
      sources.map(i => i -> s(i).clone()).toMap // S is symmetric: row i = column i
    } else Harness.largeGroundTruth(graph, sources, eps / 10, alpha)
}

object Workload {

  private val gq = Datasets.byKey("GQ-lite")
  private val db = Datasets.byKey("DB-lite")

  val all: Seq[Workload] = Seq(
    Workload("gq-coarse", gq, 1e-2, 1.0, clients = 1, sources = 8, denseTruth = true),
    Workload("gq-paper", gq, 1e-2, ExactSimConf.paperAlpha(Harness.C), clients = 1, sources = 8,
      denseTruth = true),
    Workload("db-batch", db, 1e-2, 1.0, clients = 4, sources = 4, denseTruth = false),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}
