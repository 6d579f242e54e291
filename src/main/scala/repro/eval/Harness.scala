package repro.eval

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
  * table form) — each config a [[SweepRow]]. One sweep loop ([[sweep]])
  * runs every method's ladder step and does all the timing; the methods
  * only compute.
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

  /** A ladder step's built index, as [[sweep]] reports it: the step's query
    * over it, its size and walk pairs, and how to release it.
    */
  private final case class Built(query: Int => Answer, bytes: Long = 0, walkPairs: Long = 0,
                                 release: () => Unit = () => ())

  /** One query's scores and the walk pairs it drew itself. */
  private final case class Answer(scores: Array[Double], walkPairs: Long = 0)

  private def requireSources(algo: String, graph: GraphData, sources: Seq[Int]): Unit =
    require(sources.nonEmpty, s"$algo sweep on ${graph.name}: no query sources")

  /** Runs one ladder step of one method and returns its row. A step whose
    * planned walk pairs exceed `maxWalkPairs` is skipped before anything
    * runs. Otherwise `build` makes the step's index under the index timer,
    * every source is queried under its own timer (whole milliseconds, as
    * the row reports them), the answers are scored against `truth`, the row
    * is printed, and the index is released. The row's walk pairs are the
    * index's plus the per-query mean of the queries' own.
    */
  private def sweep(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]], k: Int,
                    algo: String, param: String, plannedPairs: Long, maxWalkPairs: Long)
                   (build: => Built): SweepRow = {
    requireSources(algo, graph, sources)
    def emit(row: SweepRow): SweepRow = {
      println(s"[row] ${row.tsv}") // incremental progress for long sweeps
      row
    }
    if (plannedPairs > maxWalkPairs)
      emit(SweepRow(graph.name, algo, param, Double.NaN, Double.NaN, Double.NaN, 0, 0, 0, "SKIPPED (walk budget)"))
    else {
      val t0 = System.nanoTime()
      val built = build
      val indexMillis = (System.nanoTime() - t0) / 1000000
      try {
        val runs = sources.map { src =>
          val t = System.nanoTime()
          val answer = built.query(src)
          (src, answer, ((System.nanoTime() - t) / 1000000).toDouble)
        }
        val errs = runs.map { case (src, a, _) => Metrics.maxError(a.scores, truth(src)) }
        val precs = runs.map { case (src, a, _) => Metrics.precisionAtK(a.scores, truth(src), k, src) }
        val ms = runs.map(_._3)
        emit(SweepRow(graph.name, algo, param, ms.sum / ms.size, errs.sum / errs.size, precs.sum / precs.size,
          indexMillis, built.bytes, built.walkPairs + runs.map(_._2.walkPairs).sum / runs.size))
      } finally built.release()
    }
  }

  /** ExactSim sweep over an ε ladder. Only basic ExactSim, whose allocation
    * draws about `totalSamples` pairs, is checked against the walk budget.
    */
  def sweepExactSim(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                    k: Int, epsLadder: Seq[Double], alpha: Double,
                    basic: Boolean = false, maxWalkPairs: Long = Long.MaxValue): Seq[SweepRow] =
    epsLadder.map { eps =>
      val mk = (src: Int) =>
        if (basic) ExactSimConf.basic(eps, alpha, seed = 100 + src)
        else ExactSimConf.optimized(eps, alpha, seed = 100 + src)
      val planned = if (basic) mk(0).totalSamples(graph.n) else 0L
      sweep(graph, sources, truth, k, if (basic) "ExactSim-basic" else "ExactSim", f"eps=$eps%.0e",
        planned, maxWalkPairs) {
        Built { src =>
          val r = ExactSim.singleSource(graph, src, mk(src))
          Answer(r.scores, r.walkPairs)
        }
      }
    }

  /** ParSim sweep over iteration counts. */
  def sweepParSim(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                  k: Int, ladder: Seq[Int]): Seq[SweepRow] =
    ladder.map { l =>
      sweep(graph, sources, truth, k, "ParSim", s"L=$l", 0L, Long.MaxValue) {
        Built(src => Answer(ParSim.singleSource(graph, src, C, l)))
      }
    }

  /** MC sweep over walks-per-node. */
  def sweepMc(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
              k: Int, ladder: Seq[Int], maxWalkPairs: Long = Long.MaxValue): Seq[SweepRow] =
    ladder.map { r =>
      sweep(graph, sources, truth, k, "MC", s"r=$r", graph.n.toLong * r, maxWalkPairs) {
        val idx = McSim.buildIndex(graph, C, r, seed = 31)
        Built(src => Answer(McSim.singleSource(graph, src, idx)), idx.bytes, graph.n.toLong * r,
          () => idx.unpersist())
      }
    }

  /** Linearization sweep over ε (the index is the MC-estimated diagonal). */
  def sweepLinearization(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                         k: Int, epsLadder: Seq[Double], alpha: Double,
                         maxWalkPairs: Long): Seq[SweepRow] =
    epsLadder.map { eps =>
      sweep(graph, sources, truth, k, "Linearization", f"eps=$eps%.0e",
        Linearization.nodePairs(graph.n, eps, alpha) * graph.n, maxWalkPairs) {
        val idx = Linearization.buildIndex(graph, C, eps, alpha, seed = 57)
        Built(src => Answer(Linearization.singleSource(graph, src, idx, C, eps)), idx.bytes, idx.walkPairs)
      }
    }

  /** PRSim-lite sweep over ε. The PageRank vector is ε-independent up to
    * truncation depth, so it is computed once at the finest ε and reused for
    * both the budget checks and the index builds.
    */
  def sweepPrSim(graph: GraphData, sources: Seq[Int], truth: Map[Int, Array[Double]],
                 k: Int, epsLadder: Seq[Double], alpha: Double,
                 maxWalkPairs: Long): Seq[SweepRow] = {
    requireSources("PRSim", graph, sources) // before the PageRank pass
    val pr = PrSim.globalPageRank(graph, C, Linearized.iterationsFor(C, epsLadder.min))
    epsLadder.map { eps =>
      sweep(graph, sources, truth, k, "PRSim", f"eps=$eps%.0e",
        PrSim.indexTasks(pr, eps, alpha).map(_._2).sum, maxWalkPairs) {
        val idx = PrSim.buildIndex(graph, pr, C, eps, alpha, seed = 83)
        Built(src => Answer(PrSim.singleSource(graph, src, idx, C, eps)), idx.bytes, idx.walkPairs)
      }
    }
  }

  def printRows(title: String, rows: Seq[SweepRow]): Unit = {
    println(s"\n== $title ==")
    println(header)
    rows.foreach(r => println(r.tsv))
  }
}
