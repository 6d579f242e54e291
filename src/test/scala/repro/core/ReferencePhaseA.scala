package repro.core

import repro.core.DiagEstimator.Deterministic
import repro.graph.Csr

import scala.collection.mutable

/** Algorithm 3's deterministic phase on boxed maps: the first
  * implementation of [[DiagEstimator.deterministicPhase]], kept as the
  * reference the primitive-array version is tested against. Same levels,
  * same edge counting, same budget check at edge granularity, and the same
  * rule that an aborted level is discarded.
  *
  * By default the maps are `LinkedHashMap`s, which iterate in insertion
  * order, the order in which the array version first touches each node, so
  * zSum matches it bit for bit; with `insertionOrder = false` they are
  * `HashMap`s, as in the first implementation, whose order follows the hash
  * layout. Every touched `Z` entry is expanded, also one that cancelled to
  * ±0.0, so `level` and `edges` are the same in either order.
  */
object ReferencePhaseA {

  private final class BudgetExceeded extends RuntimeException(null, null, false, false)

  def deterministicPhase(g: Csr, k: Int, budget: Long, c: Double, maxLevel: Int,
                         insertionOrder: Boolean = true): Deterministic = {
    def newMap(): mutable.Map[Int, Double] =
      if (insertionOrder) mutable.LinkedHashMap.empty else mutable.HashMap.empty
    var edges = 0L
    // Memoized non-stop transition distributions: dists(q)(ℓ) = (Pᵀ)^ℓ(q,·).
    val dists = mutable.HashMap.empty[Int, mutable.ArrayBuffer[mutable.Map[Int, Double]]]
    def distOf(q: Int, ell: Int): mutable.Map[Int, Double] = {
      val levels = dists.getOrElseUpdate(q, mutable.ArrayBuffer(newMap() += q -> 1.0))
      while (levels.length <= ell) {
        val prev = levels.last
        val next = newMap()
        prev.foreach { case (x, p) =>
          val d = g.inDeg(x)
          if (d > 0) {
            val w = p / d
            var i = g.inOff(x)
            while (i < g.inOff(x + 1)) {
              val nb = g.inAdj(i)
              next.update(nb, next.getOrElse(nb, 0.0) + w)
              edges += 1
              if (edges > budget) throw new BudgetExceeded
              i += 1
            }
          }
        }
        levels += next
      }
      levels(ell)
    }

    // First-meeting maps Z_ℓ(k,·) for completed levels ℓ = 1..ℓ(k).
    val zMaps = mutable.ArrayBuffer.empty[mutable.Map[Int, Double]]
    var zSum = 0.0
    var completed = 0
    var exhausted = false
    while (!exhausted && completed < maxLevel) {
      val ell = completed + 1
      try {
        val wk = distOf(k, ell)
        if (wk.isEmpty) {
          // No surviving ℓ-step paths ⇒ no meets at this or any deeper level.
          return Deterministic(zSum, maxLevel, edges)
        }
        val z = newMap()
        val cl = math.pow(c, ell)
        wk.foreach { case (q, p) => z(q) = cl * p * p }
        var lp = 1
        while (lp <= ell - 1) {
          val zPrev = zMaps(ell - lp - 1) // Z_{ℓ−ℓ'}(k,·): maps are 1-indexed at idx-1
          val clp = math.pow(c, lp)
          zPrev.foreach { case (qp, zv) =>
            distOf(qp, lp).foreach { case (q, w) =>
              z.update(q, z.getOrElse(q, 0.0) - clp * w * w * zv)
            }
          }
          lp += 1
        }
        zMaps += z
        zSum += z.valuesIterator.sum
        completed = ell
        if (edges >= budget) exhausted = true
      } catch {
        case _: BudgetExceeded => exhausted = true // discard the partial level
      }
    }
    Deterministic(zSum, completed, edges)
  }
}
