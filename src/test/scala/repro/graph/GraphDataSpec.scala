package repro.graph

import repro.SimTestKit

class GraphDataSpec extends SimTestKit {

  test("fromLocal undirected materializes both directions") {
    val g = GraphData.fromLocal(spark, "u2", 2, Seq((0, 1)), undirected = true)
    assert(g.m == 2)
    assert(g.csr.inDeg(0) == 1 && g.csr.inDeg(1) == 1)
  }

  test("csr matches the edges DataFrame") {
    val g = rnd40
    val dfEdges = g.edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(g.csr.edgePairs.toSet == dfEdges)
    assert(g.csr.m == g.m)
  }

  test("inDegrees only lists nodes with incoming edges") {
    val degs = pair.inDegrees.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(degs == Map(0L -> 1L, 1L -> 1L))
  }

  test("pEdges row count equals m and weights are positive") {
    val g = rnd60u
    assert(g.pEdges.count() == g.m)
    assert(g.pEdges.filter("w <= 0 or w > 1").count() == 0)
  }

  test("toString carries name, n and m") {
    val s = pair.toString
    assert(s.contains("pair") && s.contains("n=3") && s.contains("m=2"))
  }

  test("unpersistAll leaves the graph reusable") {
    val g = GraphGen.cycle(spark, 5)
    assert(g.m == 5)
    g.unpersistAll()
    assert(g.edges.count() == 5) // recomputable after unpersist
  }

  test("an edge id outside [0, n) fails on its Long value, naming the edge") {
    import spark.implicits._
    // 2³² + 1 narrows to 1, a valid node of n = 3, so only the Long check sees it.
    for ((src, dst) <- Seq((4294967297L, 0L), (0L, -1L), (1L, 3L))) {
      val g = new GraphData(spark, "raw", 3, Seq((src, dst), (0L, 2L)).toDF("src", "dst"))
      val e = intercept[IllegalArgumentException](g.csr)
      assert(e.getMessage.contains(s"edge ($src -> $dst)") && e.getMessage.contains("[0, 3)"), e.getMessage)
    }
  }
}
