package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.{Linearization, McSim, ParSim, PrSim}
import repro.core.{ExactSim, ExactSimConf, Linearized, PowerMethod}
import repro.graph.GraphData

/** Experiment harness shared by `jobs/` entrypoints and `bench/` suites.
  *
  * Reproduces the paper's evaluation protocol: for a dataset, fix a set of
  * query sources, obtain ground truth (dense Power Method on small graphs,
  * ExactSim at ε_min on large graphs — §4.1/§4.2), sweep each algorithm's
  * parameter, and report MaxError / Precision@k vs query time plus index
  * time/size for the index-based methods (the content of Figures 1–8 in
  * table form) — each config a [[SweepRow]].
  */
object Harness {

  val C = 0.6 // decay factor used throughout the paper's experiments

  final case class SweepRow(
      dataset: String, algo: String, param: String,
      queryMillis: Double, maxError: Double, precision: Double,
      indexMillis: Long, indexBytes: Long, walkPairs: Long, note: String = "") {
    def tsv: String =
      f"$dataset%-8s $algo%-14s $param%-12s ${if (queryMillis.isNaN) "—" else f"$queryMillis%.0f"}%8s " +
        f"${if (maxError.isNaN) "—" else f"$maxError%.2e"}%10s ${if (precision.isNaN) "—" else f"$precision%.3f"}%7s " +
        f"$indexMillis%9d ${indexBytes}%12d ${walkPairs}%13d $note"
  }

  val header: String =
    f"${"dataset"}%-8s ${"algo"}%-14s ${"param"}%-12s ${"q_ms"}%8s ${"maxerr"}%10s ${"prec"}%7s " +
      f"${"idx_ms"}%9s ${"idx_bytes"}%12s ${"walk_pairs"}%13s note"

  /** Deterministic query sources: spread over ids, keep nodes with in-degree
    * ≥ 1 (a source with no in-edges has S·e_i = e_i — trivial).
    */
  def querySources(graph: GraphData, count: Int, seed: Long = 5): Seq[Int] = {
    val rng = new java.util.SplittableRandom(seed)
    val csr = graph.csr
    val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
    var guard = 0
    while (picked.size < count && guard < count * 200) {
      val v = rng.nextInt(graph.n)
      if (csr.inDeg(v) > 0) picked += v
      guard += 1
    }
    picked.toSeq
  }

  /** Exact ground truth columns on a small graph via the dense Power Method. */
  def smallGroundTruth(graph: GraphData, sources: Seq[Int], iters: Int = 40): Map[Int, Array[Double]] = {
    val s = PowerMethod.simrank(graph.csr, C, iters)
    sources.map(i => i -> s(i).clone()).toMap // S symmetric: row i = column i
  }

  /** Ground truth on large graphs: optimized ExactSim at ε_min (§4.2). */
  def largeGroundTruth(graph: GraphData, sources: Seq[Int], epsMin: Double,
                       alpha: Double): Map[Int, Array[Double]] =
    sources.map { i =>
      i -> ExactSim.singleSource(graph, i, ExactSimConf.optimized(epsMin, alpha, seed = 7700 + i)).scores
    }.toMap

  private def evalScores(scoresBySource: Seq[(Int, Array[Double], Double)],
                         truth: Map[Int, Array[Double]], k: Int,
                         dataset: String, algo: String, param: String,
                         indexMillis: Long = 0, indexBytes: Long = 0,
                         walkPairs: Long = 0, note: String = ""): SweepRow = {
    val errs = scoresBySource.map { case (src, sc, _) => Metrics.maxError(sc, truth(src)) }
    val precs = scoresBySource.map { case (src, sc, _) => Metrics.precisionAtK(sc, truth(src), k, src) }
    val ms = scoresBySource.map(_._3)
    val row = SweepRow(dataset, algo, param, ms.sum / ms.size, errs.sum / errs.size,
      precs.sum / precs.size, indexMillis, indexBytes, walkPairs, note)
    println(s"[row] ${row.tsv}") // incremental progress for long sweeps
    row
  }

  private def skipped(dataset: String, algo: String, param: String, why: String): SweepRow = {
    val row = SweepRow(dataset, algo, param, Double.NaN, Double.NaN, Double.NaN, 0, 0, 0, s"SKIPPED ($why)")
    println(s"[row] ${row.tsv}")
    row
  }

  /** ExactSim sweep over an ε ladder. */
  def sweepExactSim(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                    k: Int, epsLadder: Seq[Double], alpha: Double,
                    basic: Boolean = false, maxWalkPairs: Long = Long.MaxValue): Seq[SweepRow] =
    epsLadder.map { eps =>
      val name = if (basic) "ExactSim-basic" else "ExactSim"
      val mk = (src: Int) =>
        if (basic) ExactSimConf.basic(eps, alpha, seed = 100 + src)
        else ExactSimConf.optimized(eps, alpha, seed = 100 + src)
      // Basic allocation uses ~R pairs in total; refuse configs over budget.
      val estPairs = mk(0).totalSamples(graph.n)
      if (basic && estPairs > maxWalkPairs) skipped(graph.name, name, f"eps=$eps%.0e", "walk budget")
      else {
        val runs = sources.map { src =>
          val r = ExactSim.singleSource(graph, src, mk(src))
          (src, r.scores, r.millis.toDouble, r.walkPairs)
        }
        evalScores(runs.map(t => (t._1, t._2, t._3)), truth, k, graph.name, name,
          f"eps=$eps%.0e", walkPairs = runs.map(_._4).sum / runs.size)
      }
    }

  /** ParSim sweep over iteration counts. */
  def sweepParSim(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                  k: Int, ladder: Seq[Int]): Seq[SweepRow] =
    ladder.map { l =>
      val runs = sources.map { src =>
        val r = ParSim.singleSource(graph, src, C, l)
        (src, r.scores, r.millis.toDouble)
      }
      evalScores(runs, truth, k, graph.name, "ParSim", s"L=$l")
    }

  /** MC sweep over walks-per-node. */
  def sweepMc(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
              k: Int, ladder: Seq[Int], maxWalkPairs: Long = Long.MaxValue): Seq[SweepRow] =
    ladder.map { r =>
      if (graph.n.toLong * r > maxWalkPairs) skipped(graph.name, "MC", s"r=$r", "walk budget")
      else {
        val idx = McSim.buildIndex(graph, C, r, seed = 31)
        val runs = sources.map { src =>
          val res = McSim.singleSource(graph, src, idx)
          (src, res.scores, res.millis.toDouble)
        }
        val row = evalScores(runs, truth, k, graph.name, "MC", s"r=$r",
          indexMillis = idx.prepMillis, indexBytes = idx.bytes,
          walkPairs = graph.n.toLong * r)
        idx.unpersist()
        row
      }
    }

  /** Linearization sweep over ε (the index is the MC-estimated diagonal). */
  def sweepLinearization(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                         k: Int, epsLadder: Seq[Double], alpha: Double,
                         maxWalkPairs: Long): Seq[SweepRow] =
    epsLadder.map { eps =>
      val estPairs = Linearization.nodePairs(graph.n, eps, alpha) * graph.n
      if (estPairs > maxWalkPairs) skipped(graph.name, "Linearization", f"eps=$eps%.0e", "walk budget")
      else {
        val idx = Linearization.buildIndex(graph, C, eps, alpha, seed = 57)
        val runs = sources.map { src =>
          val res = Linearization.singleSource(graph, src, idx, C, eps)
          (src, res.scores, res.millis.toDouble)
        }
        evalScores(runs, truth, k, graph.name, "Linearization", f"eps=$eps%.0e",
          indexMillis = idx.prepMillis, indexBytes = idx.bytes, walkPairs = idx.walkPairs)
      }
    }

  /** PRSim-lite sweep over ε. The PageRank vector is ε-independent up to
    * truncation depth, so it is computed once at the finest ε and reused for
    * both the budget checks and the index builds.
    */
  def sweepPrSim(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                 k: Int, epsLadder: Seq[Double], alpha: Double,
                 maxWalkPairs: Long): Seq[SweepRow] = {
    val pr = PrSim.globalPageRank(graph, C, Linearized.iterationsFor(C, epsLadder.min))
    epsLadder.map { eps =>
      val planned = PrSim.indexTasks(pr, eps, alpha).map(_._2).sum
      if (planned > maxWalkPairs) skipped(graph.name, "PRSim", f"eps=$eps%.0e", "walk budget")
      else {
        val idx = PrSim.buildIndex(graph, pr, C, eps, alpha, seed = 83)
        val runs = sources.map { src =>
          val res = PrSim.singleSource(graph, src, idx, C, eps)
          (src, res.scores, res.millis.toDouble)
        }
        evalScores(runs, truth, k, graph.name, "PRSim", f"eps=$eps%.0e",
          indexMillis = idx.prepMillis, indexBytes = idx.bytes, walkPairs = idx.walkPairs)
      }
    }
  }

  def printRows(title: String, rows: Seq[SweepRow]): Unit = {
    println(s"\n== $title ==")
    println(header)
    rows.foreach(r => println(r.tsv))
  }
}
