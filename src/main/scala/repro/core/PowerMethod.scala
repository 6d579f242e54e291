package repro.core

import repro.graph.Csr

/** The classic exact all-pairs SimRank algorithm (Jeh & Widom) — the paper's
  * ground-truth oracle for small graphs (§4.1): iterate
  * `S ← (c·Pᵀ S P) ∨ I` from `S = I`; after `L` iterations the additive error
  * is at most `c^L`.
  *
  * `simrank` runs on dense driver-side arrays, O(n·m) per iteration, and gives
  * ground truth on graphs up to a few thousand nodes. SimRank matrices are
  * symmetric, which lets both half-products run as cache-friendly row
  * operations (`S' = c·Pᵀ(PᵀS)ᵀ`). `exactDiag` derives the exact `D` from it.
  */
object PowerMethod {

  /** Dense exact SimRank matrix after `iters` iterations (error ≤ c^iters). */
  def simrank(csr: Csr, c: Double, iters: Int): Array[Array[Double]] = {
    val n = csr.n
    var s = Array.tabulate(n)(i => { val r = new Array[Double](n); r(i) = 1.0; r })
    var it = 0
    while (it < iters) {
      val a = mulPTRows(csr, s)        // A = Pᵀ S   (row ops)
      val at = transpose(a)            // Aᵀ = S P   (S symmetric)
      val next = mulPTRows(csr, at)    // Pᵀ (S P)
      var i = 0
      while (i < n) {
        val row = next(i)
        var j = 0
        while (j < n) { row(j) *= c; j += 1 }
        row(i) = 1.0                   // ∨ I : diagonal pinned to 1
        i += 1
      }
      s = next
      it += 1
    }
    s
  }

  /** B = Pᵀ·A for row-major A: row v of B is the average of rows I(v) of A. */
  private def mulPTRows(csr: Csr, a: Array[Array[Double]]): Array[Array[Double]] = {
    val n = csr.n
    val out = Array.fill(n)(new Array[Double](n))
    var v = 0
    while (v < n) {
      val d = csr.inDeg(v)
      if (d > 0) {
        val row = out(v)
        val inv = 1.0 / d
        var p = csr.inOff(v)
        while (p < csr.inOff(v + 1)) {
          val src = csr.inAdj(p)
          val arow = a(src)
          var j = 0
          while (j < n) { row(j) += arow(j) * inv; j += 1 }
          p += 1
        }
      }
      v += 1
    }
    out
  }

  private def transpose(a: Array[Array[Double]]): Array[Array[Double]] = {
    val n = a.length
    val t = Array.fill(n)(new Array[Double](n))
    var i = 0
    while (i < n) { var j = 0; while (j < n) { t(j)(i) = a(i)(j); j += 1 }; i += 1 }
    t
  }

  /** Exact diagonal correction matrix from the exact SimRank matrix:
    * `D(k,k) = 1 − c·Σ_{a,b∈I(k)} S(a,b) / d_in(k)²`
    * (1 for sources with no in-neighbors, 1−c for in-degree 1).
    */
  def exactDiag(csr: Csr, s: Array[Array[Double]], c: Double): Array[Double] = {
    val n = csr.n
    val d = new Array[Double](n)
    var k = 0
    while (k < n) {
      val deg = csr.inDeg(k)
      if (deg == 0) d(k) = 1.0
      else {
        var sum = 0.0
        var p = csr.inOff(k)
        while (p < csr.inOff(k + 1)) {
          val a = csr.inAdj(p)
          var q = csr.inOff(k)
          while (q < csr.inOff(k + 1)) { sum += s(a)(csr.inAdj(q)); q += 1 }
          p += 1
        }
        d(k) = 1.0 - c * sum / (deg.toDouble * deg)
      }
      k += 1
    }
    d
  }
}
