package repro.core

import java.util.SplittableRandom
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, SimTestKit}
import repro.baselines.McSim
import repro.graph.Csr

class WalksSpec extends SimTestKit {

  private val sqrtC = math.sqrt(C)

  /** Meets of each `(node, pairs, prefix)` task, from one pool pass with
    * the prefixes given (−1 for a task that planned no item).
    */
  private def meets(g: Csr, tasks: Seq[(Int, Long, Int)], seed: Long,
                    threads: Int = spark.sparkContext.defaultParallelism): Seq[Long] =
    Walks.poolPass(g, tasks.map(t => (t._1, t._2)).toIndexedSeq, C, seed, threads)(tasks(_)._3).toSeq

  test("pair-walks from the shared-parent sinks meet with probability c") {
    // From node 0 of `pair`, both walks step to node 2 iff both continue (c);
    // they then coincide ⇒ Pr[meet] = c exactly.
    val frac = meets(pair.csr, Seq((0, 40000L, 0)), seed = 1).head.toDouble / 40000
    assert(math.abs(frac - C) < 0.01, s"meet fraction $frac vs $C")
  }

  test("pair-walks on a cycle meet with probability c (deterministic movement)") {
    val frac = meets(cycle7.csr, Seq((3, 40000L, 0)), seed = 2).head.toDouble / 40000
    // Both walks move in lock-step; they "meet" at step 1 iff both continue.
    assert(math.abs(frac - C) < 0.01, s"meet fraction $frac vs $C")
  }

  test("meet fraction estimates 1 - D(k,k) on random graphs") {
    for (g <- Seq(rnd40, rnd60u)) {
      val d = exactD(g)
      val k = (0 until g.n).find(v => g.csr.inDeg(v) >= 2).get
      val est = 1.0 - meets(g.csr, Seq((k, 60000L, 0)), seed = 3).head.toDouble / 60000
      assert(math.abs(est - d(k)) < 0.015, s"${g.name} node $k: $est vs ${d(k)}")
    }
  }

  test("prefix-ℓ tail meets estimate the meet mass beyond level ℓ") {
    // c^ℓ · Pr[meet after ℓ forced steps] = Σ_{ℓ'>ℓ} Z_ℓ'(k) = 1 − D(k,k) − Σ_{ℓ'≤ℓ} Z_ℓ'(k).
    // At prefix 3 the tasks are large enough to be split on the driver and in their items.
    for ((prefix, pairs) <- Seq(2 -> 200000L, 3 -> 1000000L); g <- Seq(rnd40, rnd60u)) {
      val d = exactD(g)
      val ks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2).take(4)
      val tasks = ks.map(k => (k, pairs, prefix))
      if (prefix == 3)
        assert(tasks.exists { case (k, r, l) => Walks.items(g.csr, k, r, l, 23).exists(_.depth > 0) },
          s"${g.name}: nothing was split")
      val res = ks.zip(meets(g.csr, tasks, seed = 23)).toMap
      ks.foreach { k =>
        val want = 1.0 - d(k) - ReferencePhaseA.deterministicPhase(g.csr, k, Long.MaxValue, C, prefix).zSum
        val cl = math.pow(C, prefix)
        val p = want / cl
        val sigma = cl * math.sqrt(p * (1 - p) / pairs)
        val got = cl * res(k).toDouble / pairs
        assert(math.abs(got - want) <= 5 * sigma + 1e-12, s"${g.name} node $k prefix $prefix: $got vs $want (σ $sigma)")
      }
    }
  }

  test("task chunking preserves requested totals across many nodes") {
    val tasks = Seq((0, 100L, 0), (1, 8192L, 0), (2, 8193L, 0), (3, 20000L, 0))
    tasks.foreach { case (k, r, _) =>
      val planned = Walks.items(rnd40.csr, k, r, 0, seed = 4).map(_.pairs).sum
      assert(planned == r, s"node $k: $planned")
    }
  }

  test("poolPass equals a serial loop over the same (node, chunk) streams") {
    // The pool pass may not depend on how items land on threads: a serial
    // run of the per-item procedure over the same per-(node, item) RNG
    // streams gives the same counts. A task at prefix 0 is still its chunks,
    // each a loop of pair-walks from (k, k) on its own stream.
    val g = rnd80
    val ks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2)
    val tasks = Seq((ks(0), 8193L, 0), (ks(1), 20000L, 2), (ks(2), 20000L, 0), (ks(3), 8193L, 2),
      (ks(4), 5L, 2), (ks(5), 8192L, 0), (ks(6), 400000L, 3))
    val seed = 17L
    val items = tasks.flatMap { case (k, pairs, prefix) => Walks.items(g.csr, k, pairs, prefix, seed) }
    assert(items.exists(_.depth > 0), "the large task should be split on the driver")
    val perItem = items.map(it => it.node -> Walks.itemMeets(g.csr, it, C, seed)).groupMapReduce(_._1)(_._2)(_ + _)
    val serial = tasks.map { case (k, pairs, prefix) =>
      if (prefix == 0) {
        var met = 0L
        var chunk = 0
        var done = 0L
        while (done < pairs) {
          val rng = new SplittableRandom(Walks.mix(seed, k, chunk))
          val size = math.min(Walks.ChunkSize.toLong, pairs - done)
          (0L until size).foreach { _ => if (Walks.simulateTailPairMeet(g.csr, k, k, 0, C, rng)) met += 1 }
          done += size
          chunk += 1
        }
        assert(perItem(k) == met, s"node $k: prefix-0 items are not its chunks")
      }
      perItem(k)
    }
    var pool = Seq.empty[Long]
    val jobs = jobsDuring { pool = meets(g.csr, tasks, seed) }
    assert(pool == serial, "pool pass")
    assert(jobs == 0, s"the pool pass launched $jobs Spark jobs")
  }

  test("a task of more than Int.MaxValue chunks fails before any walk is drawn") {
    val hub = (0 until rnd40.n).maxBy(rnd40.csr.inDeg)
    val tasks = Seq(0 -> 1000L, hub -> (1L << 45))
    val before = DriverPool.passes
    var e: IllegalArgumentException = null
    val jobs = jobsDuring {
      e = intercept[IllegalArgumentException](
        DiagEstimator.localExploit(rnd40.csr, tasks, C, 1, 0, spark.sparkContext.defaultParallelism))
    }
    assert(e.getMessage.contains(s"node $hub") && e.getMessage.contains((1L << 45).toString), e.getMessage)
    assert(DriverPool.passes == before && jobs == 0, "work started")
  }

  /** `I(0) × I(1)` of this graph are `da × db` distinct live nodes, so no cell is dropped. */
  private def grid(da: Int, db: Int): Csr = {
    val as = 2 until da + 2
    val bs = da + 2 until da + db + 2
    Csr.fromEdges(da + db + 2, as.map(_ -> 0) ++ bs.map(_ -> 1) ++ (as ++ bs).map(0 -> _))
  }

  /** Per-cell counts of one split of `n` pairs from (0, 1) of `grid(da, db)`. */
  private def splitCounts(g: Csr, da: Int, db: Int, n: Long, rng: SplittableRandom): Array[Long] = {
    val counts = new Array[Long](da * db)
    val s = new Walks.Splitter(g, rng) {
      def land(a: Int, b: Int, depth: Int, x: Long): Unit = {
        assert(depth == 1 && x > 0)
        counts((a - 2) * db + (b - da - 2)) += x
      }
    }
    s.split(0, 1, 0, n)
    counts
  }

  test("the splitter puts pairs on every cell equally likely (chi-square)") {
    val rng = new SplittableRandom(12)
    for ((da, db) <- Seq(1 -> 1, 2 -> 1, 3 -> 1, 7 -> 1, 4 -> 4, 20 -> 20)) {
      val m = da * db
      val g = grid(da, db)
      // Group sizes that take every path: lone pairs, reservoir bits, whole words.
      val sizes = Seq(1L, 2L, 5L, 63L, 64L, 65L, 1000L, 100000L)
      val counts = new Array[Long](m)
      var total = 0L
      while (total < math.max(400000L, 400L * m)) {
        sizes.foreach { n =>
          splitCounts(g, da, db, n, rng).zipWithIndex.foreach { case (x, i) => counts(i) += x }
          total += n
        }
      }
      assert(counts.sum == total, s"m = $m: ${counts.sum} pairs landed of $total")
      if (m > 1) {
        val expected = total.toDouble / m
        val chi2 = counts.map(o => (o - expected) * (o - expected) / expected).sum
        // Wilson–Hilferty quantile of χ²(m − 1) at z = 4 (upper tail ≈ 3e-5).
        val df = m - 1.0
        val bound = df * math.pow(1 - 2 / (9 * df) + 4 * math.sqrt(2 / (9 * df)), 3)
        assert(chi2 <= bound, s"m = $m: χ² = $chi2 > $bound")
      }
    }
  }

  test("the splitter's per-cell counts always sum to the pairs split") {
    checkProp(Prop.forAll(Gen.choose(0L, 2000000L), Gen.choose(1, 12), Gen.choose(1, 12), Gen.choose(0L, 1000L)) {
      (n, da, db, seed) => splitCounts(grid(da, db), da, db, n, new SplittableRandom(seed)).sum == n
    })
  }

  test("Bin(N, ½) by popcount has mean N/2 and variance N/4") {
    // Draws of all sizes interleave on one splitter, so the bit reservoir
    // carries over between them. With μ₄ = σ⁴(3 − 2/N), the population
    // variance of S draws has standard deviation √((μ₄ − σ⁴)/S), plus the
    // squared deviation of the mean (≤ 25σ²/S when the mean passes).
    val s = new Walks.Splitter(rnd40.csr, new SplittableRandom(31)) {
      def land(a: Int, b: Int, depth: Int, x: Long): Unit = ()
    }
    val sizes = Seq(1L, 5L, 63L, 64L, 65L, 1000L, 1000000L)
    val draws = 4000
    val got = Array.fill(sizes.size)(new Array[Long](draws))
    (0 until draws).foreach(i => sizes.indices.foreach(j => got(j)(i) = s.halfBinomial(sizes(j))))
    sizes.indices.foreach { j =>
      val n = sizes(j)
      val xs = got(j).map(_.toDouble)
      val mean = xs.sum / draws
      val variance = xs.map(x => (x - mean) * (x - mean)).sum / draws
      val sigma2 = n / 4.0
      assert(math.abs(mean - n / 2.0) <= 5 * math.sqrt(sigma2 / draws), s"N = $n: mean $mean")
      val sdVar = math.sqrt(sigma2 * sigma2 * (2 - 2.0 / n) / draws)
      assert(math.abs(variance - sigma2) <= 5 * sdVar + 25 * sigma2 / draws, s"N = $n: variance $variance")
      assert(got(j).forall(x => x >= 0 && x <= n), s"N = $n: a draw out of [0, N]")
    }
  }

  test("poolPass is deterministic in the seed") {
    val a = meets(rnd40.csr, Seq((5, 5000L, 0)), seed = 99)
    val b = meets(rnd40.csr, Seq((5, 5000L, 0)), seed = 99)
    val c2 = meets(rnd40.csr, Seq((5, 5000L, 0)), seed = 100)
    assert(a == b)
    assert(a != c2, "different seeds should (overwhelmingly) differ")
  }

  test("a zero-prefix tail sample is simulatePairMeet from (k, k), draw for draw") {
    for (g <- battery; k <- 0 until g.n) {
      val tail = new SplittableRandom(100 + k)
      val plain = new SplittableRandom(100 + k)
      (1 to 500).foreach { i =>
        assert(Walks.simulateTailPairMeet(g.csr, k, k, 0, C, tail) ==
          Walks.simulatePairMeet(g.csr, k, k, C, plain), s"${g.name} node $k draw $i")
      }
      assert(tail.nextLong() == plain.nextLong(), s"${g.name} node $k: streams end in different states")
    }
  }

  test("simulatePairMeet from distinct cycle nodes never meets") {
    val rng = new SplittableRandom(5)
    (1 to 2000).foreach { _ =>
      assert(!Walks.simulatePairMeet(cycle7.csr, 0, 3, C, rng))
    }
  }

  test("walkIndex: every node has r step-0 rows at its own position") {
    val g = rnd40
    val idx = McSim.walkIndex(g, 7, C, seed = 6).cache()
    val step0 = idx.where(col("step") === 0)
    assert(step0.count() == g.n * 7L)
    assert(step0.where(col("node") =!= col("pos")).count() == 0)
    // distinct walk ids per node = r
    val perNode = idx.select("node", "walk").distinct().groupBy("node").count().collect()
    perNode.foreach(r => assert(r.getLong(1) == 7L))
    idx.unpersist()
  }

  test("walkIndex: steps are contiguous and follow in-edges") {
    val g = rnd40
    val idx = McSim.walkIndex(g, 3, C, seed = 8).cache()
    val traces = idx.collect().groupBy(r => (r.getLong(0), r.getInt(1)))
    traces.values.foreach { rows =>
      val byStep = rows.sortBy(_.getInt(2))
      byStep.map(_.getInt(2)).zipWithIndex.foreach { case (s, i) => assert(s == i) }
      byStep.sliding(2).foreach {
        case Array(a, b) =>
          val from = a.getLong(3).toInt; val to = b.getLong(3).toInt
          assert(g.csr.inNeighbors(from).contains(to), s"step $from→$to not an in-edge")
        case _ =>
      }
    }
    idx.unpersist()
  }

  test("walkIndex mean trace length matches √c geometric stopping") {
    val g = cycle7 // no dead ends: length is purely geometric
    val idx = McSim.walkIndex(g, 4000, C, seed = 9)
    val rows = idx.count().toDouble
    val walks = g.n * 4000.0
    val expected = 1.0 / (1.0 - sqrtC) // E[rows per walk] = Σ (√c)^t
    assert(math.abs(rows / walks - expected) < 0.05, s"${rows / walks} vs $expected")
  }

  test("MC meeting-count dataflow matches DuckDB") {
    val g = rnd40
    val idx = McSim.walkIndex(g, 20, C, seed = 10).cache()
    val src = idx.where(col("node") === 1L).select("walk", "step", "pos")
    val sparkMeets = idx.join(src, Seq("walk", "step", "pos"))
      .select(col("node"), col("walk")).distinct()
      .groupBy("node").agg(count(lit(1)).as("meets"))
    Oracle.assertEquivalent(sparkMeets,
      """SELECT w.node AS node, COUNT(DISTINCT w.walk) AS meets
        |FROM w JOIN (SELECT walk, step, pos FROM w WHERE CAST(node AS BIGINT) = 1) s
        |  ON w.walk = s.walk AND w.step = s.step AND w.pos = s.pos
        |GROUP BY w.node""".stripMargin,
      "w" -> idx)
    idx.unpersist()
  }

  test("seed mixing decorrelates task streams") {
    val seen = for (a <- 0 until 40; b <- 0 until 40) yield Walks.mix(1L, a, b)
    assert(seen.distinct.size == seen.size)
    assert(Walks.mix(1L, 2, 3) != Walks.mix(2L, 2, 3))
  }
}
