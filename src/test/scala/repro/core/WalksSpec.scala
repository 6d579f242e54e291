package repro.core

import java.util.SplittableRandom
import org.apache.spark.sql.functions._
import repro.{Oracle, SimTestKit}
import repro.graph.GraphGen

class WalksSpec extends SimTestKit {

  private val sqrtC = math.sqrt(C)

  test("pair-walks from the shared-parent sinks meet with probability c") {
    // From node 0 of `pair`, both walks step to node 2 iff both continue (c);
    // they then coincide ⇒ Pr[meet] = c exactly.
    val res = Walks.pairMeetCounts(spark, pair.csrBroadcast, Seq((0, 40000L, 0)), C, seed = 1)
    val frac = res(0).meets.toDouble / res(0).pairs
    assert(math.abs(frac - C) < 0.01, s"meet fraction $frac vs $C")
  }

  test("pair-walks on a cycle meet with probability c (deterministic movement)") {
    val res = Walks.pairMeetCounts(spark, cycle7.csrBroadcast, Seq((3, 40000L, 0)), C, seed = 2)
    val frac = res(3).meets.toDouble / res(3).pairs
    // Both walks move in lock-step; they "meet" at step 1 iff both continue.
    assert(math.abs(frac - C) < 0.01, s"meet fraction $frac vs $C")
  }

  test("meet fraction estimates 1 - D(k,k) on random graphs") {
    for (g <- Seq(rnd40, rnd60u)) {
      val d = exactD(g)
      val k = (0 until g.n).find(v => g.csr.inDeg(v) >= 2).get
      val res = Walks.pairMeetCounts(spark, g.csrBroadcast, Seq((k, 60000L, 0)), C, seed = 3)
      val est = 1.0 - res(k).meets.toDouble / res(k).pairs
      assert(math.abs(est - d(k)) < 0.015, s"${g.name} node $k: $est vs ${d(k)}")
    }
  }

  test("prefix-ℓ tail meets estimate the meet mass beyond level ℓ") {
    // c^ℓ · Pr[meet after ℓ forced steps] = Σ_{ℓ'>ℓ} Z_ℓ'(k) = 1 − D(k,k) − Σ_{ℓ'≤ℓ} Z_ℓ'(k).
    val prefix = 2
    val pairs = 200000L
    for (g <- Seq(rnd40, rnd60u)) {
      val d = exactD(g)
      val ks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2).take(4)
      val res = Walks.pairMeetCounts(spark, g.csrBroadcast, ks.map(k => (k, pairs, prefix)), C, seed = 23)
      ks.foreach { k =>
        val want = 1.0 - d(k) - ReferencePhaseA.deterministicPhase(g.csr, k, Long.MaxValue, C, prefix).zSum
        val cl = math.pow(C, prefix)
        val p = want / cl
        val sigma = cl * math.sqrt(p * (1 - p) / pairs)
        val got = cl * res(k).meets.toDouble / pairs
        assert(math.abs(got - want) <= 5 * sigma + 1e-12, s"${g.name} node $k: $got vs $want (σ $sigma)")
      }
    }
  }

  test("task chunking preserves requested totals across many nodes") {
    val tasks = Seq((0, 100L, 0), (1, 8192L, 0), (2, 8193L, 0), (3, 20000L, 0))
    val res = Walks.pairMeetCounts(spark, rnd40.csrBroadcast, tasks, C, seed = 4)
    tasks.foreach { case (k, r, _) => assert(res(k).pairs == r, s"node $k: ${res(k).pairs}") }
  }

  test("pairMeetCounts equals a serial loop over the same (node, chunk) streams") {
    // Neither backend may depend on how chunks land in partitions or threads:
    // a driver loop over the same per-(node, chunk) RNG streams gives the same counts.
    val g = rnd80
    val ks = (0 until g.n).filter(v => g.csr.inDeg(v) >= 2)
    val tasks = Seq((ks(0), 8193L, 0), (ks(1), 20000L, 2), (ks(2), 20000L, 0), (ks(3), 8193L, 2),
      (ks(4), 5L, 2), (ks(5), 8192L, 0))
    val seed = 17L
    val serial = tasks.map { case (k, pairs, prefix) =>
      var meets = 0L
      var chunk = 0
      var done = 0L
      while (done < pairs) {
        val rng = new SplittableRandom(Walks.mix(seed, k, chunk))
        val size = math.min(Walks.ChunkSize.toLong, pairs - done)
        (0L until size).foreach { _ => if (Walks.simulateTailPairMeet(g.csr, k, prefix, C, rng)) meets += 1 }
        done += size
        chunk += 1
      }
      k -> Walks.MeetCount(k, pairs, meets)
    }.toMap
    val sparkPass = Walks.pairMeetCountsOn(spark, g.csrBroadcast, tasks, C, seed, inProcess = false)
    assert(sparkPass == serial, "Spark pass")
    var inProcess = Map.empty[Int, Walks.MeetCount]
    val jobs = jobsDuring { inProcess = Walks.pairMeetCountsOn(spark, g.csrBroadcast, tasks, C, seed, inProcess = true) }
    assert(inProcess == serial, "in-process")
    assert(jobs == 0, s"the in-process backend launched $jobs Spark jobs")
  }

  test("the Spark pass sizes partitions by planned pairs, not by chunk count") {
    // 2,000 one-pair chunks are 2,000 pairs of work: one partition per core, not 501.
    val g = GraphGen.localRandom(spark, "rnd2000", 2000, 6000, seed = 6)
    val bc = g.csrBroadcast
    val tasks = (0 until 2000).map(k => (k, 1L, 0))
    var res = Map.empty[Int, Walks.MeetCount]
    val sparkTasks = tasksDuring { res = Walks.pairMeetCountsOn(spark, bc, tasks, C, seed = 3, inProcess = false) }
    assert(sparkTasks <= spark.sparkContext.defaultParallelism, s"$sparkTasks Spark tasks for 2,000 pairs")
    assert(res.values.map(_.pairs).sum == 2000L)
  }

  test("pairMeetCounts is deterministic in the seed") {
    val a = Walks.pairMeetCounts(spark, rnd40.csrBroadcast, Seq((5, 5000L, 0)), C, seed = 99)(5).meets
    val b = Walks.pairMeetCounts(spark, rnd40.csrBroadcast, Seq((5, 5000L, 0)), C, seed = 99)(5).meets
    val c2 = Walks.pairMeetCounts(spark, rnd40.csrBroadcast, Seq((5, 5000L, 0)), C, seed = 100)(5).meets
    assert(a == b)
    assert(a != c2, "different seeds should (overwhelmingly) differ")
  }

  test("a zero-prefix tail sample is simulatePairMeet from (k, k), draw for draw") {
    for (g <- battery; k <- 0 until g.n) {
      val tail = new SplittableRandom(100 + k)
      val plain = new SplittableRandom(100 + k)
      (1 to 500).foreach { i =>
        assert(Walks.simulateTailPairMeet(g.csr, k, 0, C, tail) ==
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
    val idx = Walks.walkIndex(spark, g.csrBroadcast, g.n, 7, C, seed = 6).cache()
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
    val idx = Walks.walkIndex(spark, g.csrBroadcast, g.n, 3, C, seed = 8).cache()
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
    val idx = Walks.walkIndex(spark, g.csrBroadcast, g.n, 4000, C, seed = 9)
    val rows = idx.count().toDouble
    val walks = g.n * 4000.0
    val expected = 1.0 / (1.0 - sqrtC) // E[rows per walk] = Σ (√c)^t
    assert(math.abs(rows / walks - expected) < 0.05, s"${rows / walks} vs $expected")
  }

  test("MC meeting-count dataflow matches DuckDB") {
    val g = rnd40
    val idx = Walks.walkIndex(spark, g.csrBroadcast, g.n, 20, C, seed = 10).cache()
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
