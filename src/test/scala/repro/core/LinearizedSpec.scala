package repro.core

import repro.SimTestKit
import repro.eval.MemoryModel
import repro.linalg.{LinEngine, LocalEngine, SparkEngine}

class LinearizedSpec extends SimTestKit {

  private val sqrtC = math.sqrt(0.6)

  test("iterationsFor: c^L ≤ eps/2 with the minimal L") {
    for (eps <- Seq(1e-1, 1e-3, 1e-7)) {
      val l = Linearized.iterationsFor(0.6, eps)
      assert(math.pow(0.6, l) <= eps / 2 + 1e-15)
      assert(math.pow(0.6, l - 1) > eps / 2)
    }
  }

  test("forward hop vectors: ‖π^ℓ‖₁ = (1−√c)(√c)^ℓ on graphs without dead ends") {
    val g = cycle7
    val fwd = Linearized.forward(new LocalEngine(g.csr), 0, C, 12)
    fwd.hops.zipWithIndex.foreach { case (h, ell) =>
      val expect = (1 - sqrtC) * math.pow(sqrtC, ell)
      assert(math.abs(h.vals.sum - expect) < 1e-12, s"hop $ell: ${h.vals.sum} vs $expect")
    }
  }

  for (name <- Seq("cycle7", "path6", "star8", "complete5", "pair", "rnd40", "rnd60u", "rnd80"))
    test(s"forward π sums the hop vectors and has mass ≤ 1 on $name") {
      val g = battery.find(_.name == name).get
      val fwd = Linearized.forward(new LocalEngine(g.csr), 0, C, 25)
      val sum = fwd.hops.map(_.vals.sum).sum
      assert(math.abs(fwd.pi.sum - sum) < 1e-9)
      assert(fwd.pi.sum <= 1.0 + 1e-9)
    }

  test("dead ends leak walk mass (path graph loses everything past the head)") {
    val g = path6 // source 0 has no in-neighbors
    val fwd = Linearized.forward(new LocalEngine(g.csr), 0, C, 10)
    assert(math.abs(fwd.pi.sum - (1 - sqrtC)) < 1e-12, "only the ℓ=0 mass survives")
  }

  test("truncation reduces nnz and perturbs entries by at most the threshold") {
    val g = rnd80
    val eng = new LocalEngine(g.csr)
    val full = Linearized.forward(eng, 3, C, 20)
    val thr = 1e-3
    val trunc = Linearized.forward(eng, 3, C, 20, threshold = thr)
    assert(trunc.hopBytes < full.hopBytes)
    // Entry-wise: each stored hop entry is within ℓ·thr of the untruncated one
    // (error compounds across hops); check the first two hops tightly.
    (0 to 1).foreach { ell =>
      val a = full.hops(ell).toDense
      val b = trunc.hops(ell).toDense
      a.indices.foreach(i => assert(math.abs(a(i) - b(i)) <= thr * (ell + 1) + 1e-12))
    }
  }

  test("piNormSq equals Σ π(k)²") {
    val fwd = Linearized.forward(new LocalEngine(rnd40.csr), 1, C, 15)
    val direct = fwd.pi.map(x => x * x).sum
    assert(math.abs(fwd.piNormSq - direct) < 1e-12)
  }

  test("backward with D = exact diagonal equals the exact column (battery)") {
    for (g <- Seq(star8, complete5, rnd40)) {
      val eng = new LocalEngine(g.csr)
      val fwd = Linearized.forward(eng, 1, C, Linearized.iterationsFor(C, 1e-9))
      val col = Linearized.backward(eng, fwd, exactD(g), C)
      col(1) = 1.0
      assertVecNear(col, groundTruth(g)(1), 1e-7, s"backward on ${g.name}")
    }
  }

  test("backward is linear in D (scaling D scales the off-source output)") {
    val g = rnd40
    val eng = new LocalEngine(g.csr)
    val fwd = Linearized.forward(eng, 2, C, 15)
    val d1 = Array.fill(g.n)(0.4)
    val d2 = d1.map(_ * 2)
    val a = Linearized.backward(eng, fwd, d1, C)
    val b = Linearized.backward(eng, fwd, d2, C)
    a.indices.foreach(i => assert(math.abs(b(i) - 2 * a(i)) < 1e-9))
  }

  test("hop storage accounting: dense bytes = (L+1)·n·8") {
    // Table 3's basic bytes are the L(ε) + 1 hops a dense forward pass stores.
    val eps = 1e-2
    val fwd = Linearized.forward(new LocalEngine(rnd40.csr), 0, C, Linearized.iterationsFor(C, eps))
    assert(MemoryModel.basicBytes(rnd40.n, C, eps) == fwd.hops.length.toLong * rnd40.n * 8)
    assert(fwd.hopBytes == fwd.hops.map(_.bytes).sum)
  }

  test("forward then backward on SparkEngine equal LocalEngine on the battery") {
    for (g <- battery) {
      def scores(eng: LinEngine) = {
        val fwd = Linearized.forward(eng, g.n / 2, C, 5)
        Linearized.backward(eng, fwd, exactD(g), C)
      }
      assertVecNear(scores(new SparkEngine(g)), scores(new LocalEngine(g.csr)), 1e-12, s"${g.name}: Spark vs local")
    }
  }
}
