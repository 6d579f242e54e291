package repro.linalg

import repro.SimTestKit

class SparseVecSpec extends SimTestKit {

  test("fromDense/toDense round-trip") {
    val d = Array(0.0, 1.5, 0.0, -2.0, 3.0)
    val sv = SparseVec.fromDense(d)
    assert(sv.nnz == 3)
    assert(sv.toDense.toSeq == d.toSeq)
  }

  test("fromDense honors zero tolerance") {
    val sv = SparseVec.fromDense(Array(1e-12, 0.5, -1e-12), zeroTol = 1e-9)
    assert(sv.nnz == 1 && sv(1) == 0.5)
  }

  test("apply returns 0 for absent ids") {
    val sv = SparseVec(10, Array(2, 7), Array(1.0, 2.0))
    assert(sv(2) == 1.0 && sv(7) == 2.0 && sv(0) == 0.0 && sv(9) == 0.0)
  }

  test("bytes = 12 per entry") {
    assert(SparseVec(100, Array(1, 2, 3), Array(1.0, 1.0, 1.0)).bytes == 36)
  }

  test("mismatched arrays rejected") {
    intercept[IllegalArgumentException](SparseVec(3, Array(0), Array(1.0, 2.0)))
  }
}
