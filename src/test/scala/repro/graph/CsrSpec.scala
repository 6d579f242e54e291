package repro.graph

import java.util.SplittableRandom
import repro.SimTestKit

class CsrSpec extends SimTestKit {

  test("fromEdges builds sorted in-adjacency") {
    val g = Csr.fromEdges(4, Seq((1, 0), (3, 0), (2, 0), (0, 1)))
    assert(g.inDeg(0) == 3)
    assert(g.inNeighbors(0).toSeq == Seq(1, 2, 3))
    assert(g.inDeg(1) == 1 && g.inNeighbors(1).toSeq == Seq(0))
    assert(g.inDeg(2) == 0 && g.inDeg(3) == 0)
    assert(g.m == 4)
  }

  test("fromEdges rejects self-loops") {
    intercept[IllegalArgumentException](Csr.fromEdges(3, Seq((1, 1))))
  }

  test("fromEdges rejects out-of-range nodes") {
    intercept[IllegalArgumentException](Csr.fromEdges(2, Seq((0, 5))))
  }

  test("edgePairs round-trips the edge list") {
    val edges = Seq((1, 0), (2, 0), (0, 2), (2, 1))
    val g = Csr.fromEdges(3, edges)
    assert(g.edgePairs.toSet == edges.toSet)
  }

  test("step returns -1 at dead ends and an in-neighbor otherwise") {
    val g = Csr.fromEdges(3, Seq((2, 0), (2, 1)))
    val rng = new SplittableRandom(1)
    assert(g.step(2, rng) == -1)
    (1 to 50).foreach(_ => assert(g.step(0, rng) == 2))
  }

  test("step is uniform over in-neighbors") {
    val g = Csr.fromEdges(4, Seq((1, 0), (2, 0), (3, 0)))
    val rng = new SplittableRandom(7)
    val counts = new Array[Int](4)
    (1 to 30000).foreach(_ => counts(g.step(0, rng)) += 1)
    Seq(1, 2, 3).foreach(v => assert(math.abs(counts(v) - 10000) < 500, s"node $v: ${counts(v)}"))
  }

  test("below rejects a low word under (2³² − d) mod d and redraws from nextInt") {
    // bits = 0 gives low word 0 < (2³² − 3) mod 3 = 1: exactly one more nextInt.
    val rng = new SplittableRandom(3)
    val twin = new SplittableRandom(3)
    val redraw = twin.nextInt()
    assert(Csr.below(0, 3, rng) == (((redraw & 0xffffffffL) * 3) >>> 32).toInt)
    assert(rng.nextLong() == twin.nextLong(), "d = 3, bits = 0 must consume exactly one nextInt")
    // A power of two has (2³² − d) mod d = 0: no bits are rejected.
    for (d <- Seq(1, 2, 8, 1 << 20, 1 << 30); bits <- Seq(0, 1, -1, Int.MinValue, 0x12345678)) {
      val r = new SplittableRandom(4)
      assert(Csr.below(bits, d, r) == (((bits & 0xffffffffL) * d) >>> 32).toInt)
      assert(r.nextLong() == new SplittableRandom(4).nextLong(), s"d = $d, bits = $bits drew again")
    }
  }

  test("below is uniform over [0, d) (chi-square)") {
    val rng = new SplittableRandom(8)
    for (d <- Seq(2, 3, 7, 1000)) {
      val draws = math.max(60000, 200 * d)
      val counts = new Array[Long](d)
      (1 to draws).foreach(_ => counts(Csr.below(rng.nextInt(), d, rng)) += 1)
      val expected = draws.toDouble / d
      val chi2 = counts.map(o => (o - expected) * (o - expected) / expected).sum
      // Wilson–Hilferty quantile of χ²(d − 1) at z = 4 (upper tail ≈ 3e-5).
      val df = d - 1.0
      val bound = df * math.pow(1 - 2 / (9 * df) + 4 * math.sqrt(2 / (9 * df)), 3)
      assert(chi2 <= bound, s"d = $d: χ² = $chi2 > $bound")
    }
  }

  test("mulP preserves mass except at dead ends") {
    val x = new Array[Double](pair.n); x(0) = 0.5; x(1) = 0.5
    val y = pair.csr.mulP(x)
    // All mass moves to the shared parent (node 2).
    assert(math.abs(y(2) - 1.0) < 1e-12 && y(0) == 0.0 && y(1) == 0.0)
    // Parent is a dead end: next application loses the mass.
    assert(pair.csr.mulP(y).sum == 0.0)
  }

  test("mulP column-stochastic: e_j spreads 1/d to each in-neighbor") {
    val g = star8.csr // leaves have in-deg 1 (center), center has in-deg 7
    val x = new Array[Double](g.n); x(0) = 1.0 // center
    val y = g.mulP(x)
    (1 until 8).foreach(l => assert(math.abs(y(l) - 1.0 / 7) < 1e-12))
  }

  test("mulPT averages over in-neighbors") {
    val g = star8.csr
    val x = Array.tabulate(g.n)(i => i.toDouble)
    val y = g.mulPT(x)
    // center: average of leaves 1..7 = 4; each leaf: x(center) = 0.
    assert(math.abs(y(0) - 4.0) < 1e-12)
    (1 until 8).foreach(l => assert(y(l) == 0.0))
  }

  for (name <- Seq("cycle7", "path6", "star8", "complete5", "pair", "rnd40", "rnd60u", "rnd80"))
    test(s"mulP and mulPT are adjoint on $name: ⟨Px, y⟩ = ⟨x, Pᵀy⟩") {
      val g = battery.find(_.name == name).get
      val rng = new SplittableRandom(11)
      val x = Array.fill(g.n)(rng.nextDouble())
      val y = Array.fill(g.n)(rng.nextDouble())
      val lhs = g.csr.mulP(x).zip(y).map { case (a, b) => a * b }.sum
      val rhs = x.zip(g.csr.mulPT(y)).map { case (a, b) => a * b }.sum
      assert(math.abs(lhs - rhs) < 1e-9, s"${g.name}: $lhs vs $rhs")
    }

  test("mulP rejects wrong-length vectors") {
    intercept[IllegalArgumentException](cycle7.csr.mulP(new Array[Double](3)))
    intercept[IllegalArgumentException](cycle7.csr.mulPT(new Array[Double](99)))
  }
}
