package repro.eval

import repro.core.Linearized

/** Memory accounting for the paper's Table 3.
  *
  * The dominant space term of ExactSim is the stored ℓ-hop PPR vectors:
  * dense `O(n·L)` doubles for basic ExactSim, truncated sparse vectors
  * (`O(1/ε)` entries, Lemma 2) for the optimized version. "Graph size" is
  * the edge list at 8 bytes per directed edge, matching the paper's framing
  * of overhead *relative to* the graph. Numbers are analytic (entry counts ×
  * entry width) so they are deterministic rather than GC-dependent.
  */
object MemoryModel {

  final case class Row(dataset: String, basicBytes: Long, optimizedBytes: Long, graphBytes: Long) {
    def basicOverGraph: Double = basicBytes.toDouble / graphBytes
    def basicOverOptimized: Double = basicBytes.toDouble / optimizedBytes
  }

  /** Basic ExactSim's hop vectors at ε on `n` nodes: `L(ε) + 1` dense
    * vectors of `n` doubles (basic ExactSim does not split ε).
    */
  def basicBytes(n: Int, c: Double, eps: Double): Long = (Linearized.iterationsFor(c, eps) + 1).toLong * n * 8

  def fmtMB(bytes: Long): String = f"${bytes / 1048576.0}%.2f"
}
