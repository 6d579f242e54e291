package repro.core

import repro.SimTestKit

class PowerMethodSpec extends SimTestKit {

  test("shared-parent pair: S(0,1) = c exactly") {
    val s = groundTruth(pair)
    assert(math.abs(s(0)(1) - C) < 1e-12)
    assert(math.abs(s(2)(0)) < 1e-12 && math.abs(s(2)(1)) < 1e-12)
  }

  test("directed cycle: off-diagonal SimRank is exactly 0") {
    val s = groundTruth(cycle7)
    for (i <- 0 until 7; j <- 0 until 7 if i != j) assert(s(i)(j) == 0.0)
  }

  test("directed path: off-diagonal SimRank is exactly 0") {
    val s = groundTruth(path6)
    for (i <- 0 until 6; j <- 0 until 6 if i != j) assert(s(i)(j) == 0.0)
  }

  test("star: S(center, leaf) = 0 and S(leaf, leaf') = c exactly") {
    val s = groundTruth(star8)
    (1 until 8).foreach(l => assert(math.abs(s(0)(l)) < 1e-12))
    for (a <- 1 until 8; b <- 1 until 8 if a != b)
      assert(math.abs(s(a)(b) - C) < 1e-12)
  }

  test("complete graph matches the scalar fixed point") {
    val n = 5
    val s = groundTruth(complete5)
    // s = c·((n−2) + ((n−1)² − (n−2))·s)/(n−1)²  ⇒  closed form below.
    val q = (n - 1.0) * (n - 1.0)
    val expected = C * (n - 2) / (q - C * (q - (n - 2)))
    for (i <- 0 until n; j <- 0 until n if i != j)
      assert(math.abs(s(i)(j) - expected) < 1e-10, s"S($i,$j)=${s(i)(j)} vs $expected")
  }

  for (name <- Seq("cycle7", "path6", "star8", "complete5", "pair", "rnd40", "rnd60u", "rnd80"))
    test(s"SimRank matrix of $name is symmetric with unit diagonal, values in [0,1]") {
      val g = battery.find(_.name == name).get
      val s = groundTruth(g)
      for (i <- 0 until g.n) {
        assert(s(i)(i) == 1.0)
        for (j <- 0 until g.n) {
          assert(s(i)(j) >= -1e-12 && s(i)(j) <= 1.0 + 1e-12, s"${g.name} S($i,$j)=${s(i)(j)}")
          assert(math.abs(s(i)(j) - s(j)(i)) < 1e-12)
        }
      }
    }

  test("iterations converge geometrically (error ≤ c^L)") {
    for (g <- Seq(rnd40, rnd60u)) {
      val sFull = groundTruth(g)
      val s10 = PowerMethod.simrank(g.csr, C, 10)
      var worst = 0.0
      for (i <- 0 until g.n; j <- 0 until g.n)
        worst = math.max(worst, math.abs(s10(i)(j) - sFull(i)(j)))
      assert(worst <= math.pow(C, 10) + 1e-12, s"${g.name}: $worst")
      assert(worst > 0.0, s"${g.name}: iteration should still be moving at L=10")
    }
  }

  test("exactDiag: trivial cases (in-degree 0 → 1, in-degree 1 → 1−c)") {
    val d = exactD(pair)
    assert(math.abs(d(2) - 1.0) < 1e-12)
    assert(math.abs(d(0) - (1 - C)) < 1e-12 && math.abs(d(1) - (1 - C)) < 1e-12)
  }

  test("exactDiag values lie in [1−c, 1]") {
    for (g <- battery) {
      exactD(g).foreach(dk => assert(dk >= 1 - C - 1e-9 && dk <= 1.0 + 1e-12, s"${g.name}: $dk"))
    }
  }

  for (name <- Seq("cycle7", "path6", "star8", "complete5", "pair", "rnd40", "rnd60u", "rnd80"))
    test(s"linearization with exact D reproduces the exact SimRank column on $name") {
      import repro.linalg.LocalEngine
      val g = battery.find(_.name == name).get
      val s = groundTruth(g)
      val d = exactD(g)
      val eng = new LocalEngine(g.csr)
      val src = g.n / 2
      val fwd = Linearized.forward(eng, src, C, Linearized.iterationsFor(C, 1e-9))
      val col = Linearized.backward(eng, fwd, d, C)
      col(src) = 1.0
      assertVecNear(col, s(src), 1e-7, s"linearized column on ${g.name}")
    }
}
