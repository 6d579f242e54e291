package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{ExactSim, ExactSimConf}
import repro.graph.GraphData

/** The paper's experiment programs, one per table (DESIGN.md §5). Scale knobs
  * are env-overridable so the same code can run a quick pass (defaults) or a
  * deeper sweep. Shared by `jobs/` mains and `bench/` suites.
  */
object Experiments {

  def envInt(name: String, default: Int): Int = sys.env.get(name).map(_.toInt).getOrElse(default)
  def envDouble(name: String, default: Double): Double = sys.env.get(name).map(_.toDouble).getOrElse(default)

  /** Sample-budget multiplier `α` in `R = ⌈α·ln n/ε²⌉` — substitution #3 in
    * DESIGN.md (the paper's Bernstein constant ≈ 2327 rescaled to wall-clock;
    * estimators stay unbiased, errors are *measured* not assumed).
    */
  def alpha: Double = envDouble("BENCH_ALPHA", 1.0)

  /** Our ε_min (substitution #2; paper: 1e-7). */
  def epsMin: Double = envDouble("BENCH_EPS_MIN", 1e-4)

  /** Query counts per dataset (paper: 50). Defaults keep the default bench
    * run inside this session's wall-clock; raise via env for deeper runs.
    */
  def smallQueries: Int = envInt("BENCH_QUERIES_SMALL", 2)
  def largeQueries: Int = envInt("BENCH_QUERIES_LARGE", 1)
  def walkBudget: Long = envDouble("BENCH_WALK_BUDGET", 3e8).toLong

  // ---- Table 2: dataset statistics -----------------------------------------

  final case class DatasetRow(key: String, paperName: String, tpe: String,
                              paperN: Long, paperM: Long, n: Long, m: Long)

  def table2(spark: SparkSession, specs: Seq[Datasets.Spec] = Datasets.all): Seq[DatasetRow] =
    specs.map { sp =>
      val g = sp.generate(spark)
      val row = DatasetRow(sp.key, sp.paperName, if (sp.directed) "directed" else "undirected",
        sp.paperN, sp.paperM, g.n, g.m)
      g.unpersistAll()
      row
    }

  // ---- Table 3: memory overhead --------------------------------------------

  /** Memory overhead of basic vs optimized ExactSim at ε_min on the large
    * analogs. The optimized number is the measured bytes of the truncated hop
    * vectors from a real query; the basic number is the dense `(L+1)·n`
    * doubles that configuration stores.
    */
  def table3(spark: SparkSession, specs: Seq[Datasets.Spec] = Datasets.large): Seq[MemoryModel.Row] =
    specs.map { sp =>
      val g = sp.generate(spark)
      val src = Harness.querySources(g, 1).head
      val res = ExactSim.singleSource(g, src, ExactSimConf.optimized(epsMin, alpha))
      val row = MemoryModel.Row(sp.key, MemoryModel.basicBytes(g.n, Harness.C, epsMin), res.hopVectorBytes,
        g.graphBytes)
      g.unpersistAll()
      row
    }

  // ---- Figures 1–4 as a table: small-graph tradeoffs -----------------------

  def smallTradeoff(spark: SparkSession, specs: Seq[Datasets.Spec] = Datasets.small,
                    k: Int = 100): Seq[Harness.SweepRow] =
    specs.flatMap { sp =>
      val g = sp.generate(spark)
      val sources = Harness.querySources(g, smallQueries)
      val truth = Harness.smallGroundTruth(g, sources)
      val rows =
        Harness.sweepExactSim(g, sources, truth, k, Seq(1e-1, 1e-2, 1e-3, epsMin), alpha) ++
          Harness.sweepParSim(g, sources, truth, k, Seq(3, 10)) ++
          Harness.sweepMc(g, sources, truth, k, Seq(10, 300), walkBudget) ++
          Harness.sweepLinearization(g, sources, truth, k, Seq(3e-2, 1e-3), alpha, walkBudget) ++
          Harness.sweepPrSim(g, sources, truth, k, Seq(1e-2, 1e-3, epsMin), alpha, walkBudget)
      g.unpersistAll()
      rows
    }

  // ---- Figures 5–8 as a table: large-graph tradeoffs -----------------------

  def largeTradeoff(spark: SparkSession, specs: Seq[Datasets.Spec] = Datasets.large,
                    k: Int = 500): Seq[Harness.SweepRow] =
    specs.flatMap { sp =>
      val g = sp.generate(spark)
      val sources = Harness.querySources(g, largeQueries)
      val truth = Harness.largeGroundTruth(g, sources, epsMin, alpha)
      // The ground-truth config itself is reported the way the paper does in
      // §4.2: MaxError pinned to ε_min, precision 1.
      val gtRow = Harness.SweepRow(g.name, "ExactSim", f"eps=$epsMin%.0e(GT)",
        Double.NaN, epsMin, 1.0, 0, 0, 0, "ground truth by definition")
      val rows =
        Harness.sweepExactSim(g, sources, truth, k, Seq(1e-1, 1e-2, 1e-3), alpha) ++
          Seq(gtRow) ++
          Harness.sweepParSim(g, sources, truth, k, Seq(3, 10)) ++
          Harness.sweepMc(g, sources, truth, k, Seq(5, 20), walkBudget) ++
          Harness.sweepLinearization(g, sources, truth, k, Seq(1e-1, 1e-2), alpha, walkBudget) ++
          Harness.sweepPrSim(g, sources, truth, k, Seq(1e-1, 1e-2, 1e-3), alpha, walkBudget)
      g.unpersistAll()
      rows
    }

  // ---- Figure 9 as a table: basic vs optimized ExactSim --------------------

  def ablation(spark: SparkSession): Seq[Harness.SweepRow] = {
    val specs = Seq(Datasets.byKey("GQ-lite"), Datasets.byKey("DB-lite"))
    specs.flatMap { sp =>
      val g = sp.generate(spark)
      val sources = Harness.querySources(g, math.max(1, smallQueries - 1))
      val truth =
        if (sp.n <= 4000) Harness.smallGroundTruth(g, sources)
        else Harness.largeGroundTruth(g, sources, epsMin, alpha)
      val ladder = Seq(1e-2, 1e-3, epsMin)
      val rows =
        Harness.sweepExactSim(g, sources, truth, 100, ladder, alpha, basic = true,
          maxWalkPairs = walkBudget * 10) ++
          Harness.sweepExactSim(g, sources, truth, 100, ladder, alpha)
      g.unpersistAll()
      rows
    }
  }
}
