package repro.linalg

/** Immutable sparse vector over node ids 0..n-1, stored as parallel arrays
  * sorted by id. This is the on-heap representation of the truncated ℓ-hop
  * PPR vectors of the *sparse Linearization* optimization (§3.2): its
  * `bytes` is what the Table 3 memory accounting measures.
  */
final case class SparseVec(n: Int, ids: Array[Int], vals: Array[Double]) {
  require(ids.length == vals.length, "ids/vals length mismatch")

  def nnz: Int = ids.length

  /** Heap bytes of the sparse representation: 4 (id) + 8 (value) per entry. */
  def bytes: Long = nnz.toLong * 12

  def toDense: Array[Double] = {
    val d = new Array[Double](n)
    var i = 0
    while (i < nnz) { d(ids(i)) = vals(i); i += 1 }
    d
  }

  def apply(id: Int): Double = {
    val p = java.util.Arrays.binarySearch(ids, id)
    if (p >= 0) vals(p) else 0.0
  }
}

object SparseVec {

  def fromDense(x: Array[Double], zeroTol: Double = 0.0): SparseVec = {
    val keep = x.indices.filter(i => math.abs(x(i)) > zeroTol)
    SparseVec(x.length, keep.toArray, keep.map(x).toArray)
  }
}
