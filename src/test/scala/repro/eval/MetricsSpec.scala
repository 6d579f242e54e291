package repro.eval

import repro.{Oracle, SimTestKit}

class MetricsSpec extends SimTestKit {

  test("maxError finds the largest deviation") {
    assert(math.abs(Metrics.maxError(Array(0.1, 0.5, 0.9), Array(0.1, 0.4, 0.95)) - 0.1) < 1e-12)
    assert(Metrics.maxError(Array(1.0), Array(1.0)) == 0.0)
  }

  test("maxError rejects mismatched lengths") {
    intercept[IllegalArgumentException](Metrics.maxError(Array(1.0), Array(1.0, 2.0)))
  }

  test("topK orders by score descending with id tiebreak") {
    val s = Array(0.5, 0.9, 0.5, 0.1)
    assert(Metrics.topK(s, 3) == Seq(1, 0, 2))
  }

  test("topK excludes the source") {
    val s = Array(1.0, 0.9, 0.8)
    assert(Metrics.topK(s, 2, exclude = 0) == Seq(1, 2))
  }

  test("topK truncates when k exceeds the candidate count") {
    assert(Metrics.topK(Array(0.3, 0.2), 10).size == 2)
  }

  test("precisionAtK is 1 for identical rankings and fractional otherwise") {
    val truth = Array(0.0, 0.9, 0.8, 0.7, 0.1)
    assert(Metrics.precisionAtK(truth, truth, 3, source = 0) == 1.0)
    val est = Array(0.0, 0.9, 0.05, 0.7, 0.8) // swaps node 2 out for node 4
    assert(math.abs(Metrics.precisionAtK(est, truth, 3, source = 0) - 2.0 / 3) < 1e-12)
  }

  test("topK agrees with DuckDB ORDER BY ... LIMIT k") {
    import spark.implicits._
    val scores = Array(0.12, 0.93, 0.43, 0.93, 0.01, 0.55)
    val df = spark.createDataset(scores.indices.map(i => (i.toLong, scores(i)))).toDF("id", "v")
    val k = 3
    val sparkTop = spark.createDataset(Metrics.topK(scores, k).map(_.toLong)).toDF("id")
    Oracle.assertEquivalent(sparkTop,
      s"SELECT id FROM s ORDER BY CAST(v AS DOUBLE) DESC, CAST(id AS BIGINT) ASC LIMIT $k",
      "s" -> df)
  }

  test("precision@k on real SimRank output is consistent with set overlap") {
    val g = rnd40
    val truth = groundTruth(g)
    val t = Metrics.topK(truth(3), 5, 3).toSet
    val p = Metrics.precisionAtK(truth(3), truth(3), 5, 3)
    assert(p == 1.0 && t.size == 5)
  }
}
