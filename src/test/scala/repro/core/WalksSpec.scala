package repro.core

import java.util.SplittableRandom
import org.apache.spark.sql.functions._
import repro.{Oracle, SimTestKit}

class WalksSpec extends SimTestKit {

  private val sqrtC = math.sqrt(C)

  test("pair-walks from the shared-parent sinks meet with probability c") {
    // From node 0 of `pair`, both walks step to node 2 iff both continue (c);
    // they then coincide ⇒ Pr[meet] = c exactly.
    val bc = spark.sparkContext.broadcast(pair.csr)
    val res = Walks.pairMeetCounts(spark, bc, Seq((0, 40000L, 0)), C, seed = 1)
    val frac = res(0).meets.toDouble / res(0).pairs
    assert(math.abs(frac - C) < 0.01, s"meet fraction $frac vs $C")
    bc.destroy()
  }

  test("pair-walks on a cycle meet with probability c (deterministic movement)") {
    val bc = spark.sparkContext.broadcast(cycle7.csr)
    val res = Walks.pairMeetCounts(spark, bc, Seq((3, 40000L, 0)), C, seed = 2)
    val frac = res(3).meets.toDouble / res(3).pairs
    // Both walks move in lock-step; they "meet" at step 1 iff both continue.
    assert(math.abs(frac - C) < 0.01, s"meet fraction $frac vs $C")
    bc.destroy()
  }

  test("meet fraction estimates 1 - D(k,k) on random graphs") {
    for (g <- Seq(rnd40, rnd60u)) {
      val d = exactD(g)
      val k = (0 until g.n).find(v => g.csr.inDeg(v) >= 2).get
      val bc = spark.sparkContext.broadcast(g.csr)
      val res = Walks.pairMeetCounts(spark, bc, Seq((k, 60000L, 0)), C, seed = 3)
      val est = 1.0 - res(k).meets.toDouble / res(k).pairs
      assert(math.abs(est - d(k)) < 0.015, s"${g.name} node $k: $est vs ${d(k)}")
      bc.destroy()
    }
  }

  test("task chunking preserves requested totals across many nodes") {
    val bc = spark.sparkContext.broadcast(rnd40.csr)
    val tasks = Seq((0, 100L, 0), (1, 8192L, 0), (2, 8193L, 0), (3, 20000L, 0))
    val res = Walks.pairMeetCounts(spark, bc, tasks, C, seed = 4)
    tasks.foreach { case (k, r, _) => assert(res(k).pairs == r, s"node $k: ${res(k).pairs}") }
    bc.destroy()
  }

  test("pairMeetCounts is deterministic in the seed") {
    val bc = spark.sparkContext.broadcast(rnd40.csr)
    val a = Walks.pairMeetCounts(spark, bc, Seq((5, 5000L, 0)), C, seed = 99)(5).meets
    val b = Walks.pairMeetCounts(spark, bc, Seq((5, 5000L, 0)), C, seed = 99)(5).meets
    val c2 = Walks.pairMeetCounts(spark, bc, Seq((5, 5000L, 0)), C, seed = 100)(5).meets
    assert(a == b)
    assert(a != c2, "different seeds should (overwhelmingly) differ")
    bc.destroy()
  }

  test("a zero-prefix tail sample is simulatePairMeet from (k, k), draw for draw") {
    for (g <- battery; k <- 0 until g.n) {
      val tail = new SplittableRandom(100 + k)
      val plain = new SplittableRandom(100 + k)
      (1 to 500).foreach { i =>
        assert(Walks.simulateTailPairMeet(g.csr, k, 0, sqrtC, tail) ==
          Walks.simulatePairMeet(g.csr, k, k, sqrtC, plain), s"${g.name} node $k draw $i")
      }
      assert(tail.nextLong() == plain.nextLong(), s"${g.name} node $k: streams end in different states")
    }
  }

  test("simulatePairMeet from distinct cycle nodes never meets") {
    val rng = new SplittableRandom(5)
    (1 to 2000).foreach { _ =>
      assert(!Walks.simulatePairMeet(cycle7.csr, 0, 3, sqrtC, rng))
    }
  }

  test("walkIndex: every node has r step-0 rows at its own position") {
    val g = rnd40
    val bc = spark.sparkContext.broadcast(g.csr)
    val idx = Walks.walkIndex(spark, bc, g.n, 7, C, seed = 6).cache()
    val step0 = idx.where(col("step") === 0)
    assert(step0.count() == g.n * 7L)
    assert(step0.where(col("node") =!= col("pos")).count() == 0)
    // distinct walk ids per node = r
    val perNode = idx.select("node", "walk").distinct().groupBy("node").count().collect()
    perNode.foreach(r => assert(r.getLong(1) == 7L))
    idx.unpersist(); bc.destroy()
  }

  test("walkIndex: steps are contiguous and follow in-edges") {
    val g = rnd40
    val bc = spark.sparkContext.broadcast(g.csr)
    val idx = Walks.walkIndex(spark, bc, g.n, 3, C, seed = 8).cache()
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
    idx.unpersist(); bc.destroy()
  }

  test("walkIndex mean trace length matches √c geometric stopping") {
    val g = cycle7 // no dead ends: length is purely geometric
    val bc = spark.sparkContext.broadcast(g.csr)
    val idx = Walks.walkIndex(spark, bc, g.n, 4000, C, seed = 9)
    val rows = idx.count().toDouble
    val walks = g.n * 4000.0
    val expected = 1.0 / (1.0 - sqrtC) // E[rows per walk] = Σ (√c)^t
    assert(math.abs(rows / walks - expected) < 0.05, s"${rows / walks} vs $expected")
    bc.destroy()
  }

  test("MC meeting-count dataflow matches DuckDB") {
    val g = rnd40
    val bc = spark.sparkContext.broadcast(g.csr)
    val idx = Walks.walkIndex(spark, bc, g.n, 20, C, seed = 10).cache()
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
    idx.unpersist(); bc.destroy()
  }

  test("seed mixing decorrelates task streams") {
    val seen = for (a <- 0 until 40; b <- 0 until 40) yield Walks.mix(1L, a, b)
    assert(seen.distinct.size == seen.size)
    assert(Walks.mix(1L, 2, 3) != Walks.mix(2L, 2, 3))
  }
}
