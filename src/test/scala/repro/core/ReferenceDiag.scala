package repro.core

import repro.graph.Csr

/** D̂ computed serially, node by node on the calling thread: the reference
  * that the driver pool's [[DiagEstimator.localExploit]] is tested against.
  * A node takes its trivial value; otherwise phase A runs at
  * [[DiagEstimator.edgeBudget]], the node's [[Walks.items]] are planned at
  * the level it reached, their [[Walks.itemMeets]] are added in a plain
  * loop, and `D̂(k,k) = 1 − zSum − c^ℓ·meets/R(k)`. No pool, queue or
  * schedule is involved.
  */
object ReferenceDiag {

  def localExploit(g: Csr, tasks: Seq[(Int, Long)], c: Double, seed: Long, maxLevel: Int): DiagEstimator.DiagResult = {
    var pairs = 0L
    var edges = 0L
    val dhat = tasks.map { case (k, rk) =>
      k -> DiagEstimator.trivial(g, k, c).getOrElse {
        val d = DiagEstimator.deterministicPhase(g, k, DiagEstimator.edgeBudget(rk, c), c, maxLevel)
        var meets = 0L
        Walks.items(g, k, rk, d.level, seed).foreach(item => meets += Walks.itemMeets(g, item, c, seed))
        pairs += rk
        edges += d.edges
        val tail = if (meets > 0) math.pow(c, d.level) * meets.toDouble / rk else 0.0
        1.0 - d.zSum - tail
      }
    }.toMap
    DiagEstimator.DiagResult(dhat, pairs, edges)
  }
}
