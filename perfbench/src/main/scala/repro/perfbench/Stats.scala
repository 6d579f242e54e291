package repro.perfbench

/** One query of a closed-loop window: who ran it, when, and how it ended.
  *
  * @param verdict `None` if the answer passed the [[Checker]], else why not
  *                (a thrown query carries the exception's class name)
  */
final case class QueryRecord(client: Int, source: Int, startNs: Long, endNs: Long,
                             verdict: Option[String]) {
  def passed: Boolean = verdict.isEmpty
  def ms: Double = (endNs - startNs) / 1e6
}

/** The benchmark's own arithmetic, kept free of Spark so it is unit-tested. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val h = s.length / 2
    if (s.length % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2
  }

  /** Queries per second over the window in which every client is busy.
    *
    * Clients start together at `t0Ns` and stop issuing at the deadline, so the
    * window ends when the first client finishes its last query; the drain
    * after it is excluded. A passed query counts 1 if it ended inside the
    * window, and by the share of its run time inside the window if it
    * straddles the end, which keeps the count from jumping by whole queries.
    * Failed and thrown queries count 0.
    */
  def busyWindowThroughput(records: Seq[QueryRecord], t0Ns: Long): Double = {
    require(records.nonEmpty, "throughput of no queries")
    val windowEnd = records.groupBy(_.client).values.map(_.map(_.endNs).max).min
    val done = records.iterator.filter(_.passed).map { r =>
      if (r.endNs <= windowEnd) 1.0
      else if (r.startNs >= windowEnd) 0.0
      else (windowEnd - r.startNs).toDouble / (r.endNs - r.startNs)
    }.sum
    done / ((windowEnd - t0Ns) / 1e9)
  }

  /** Second-half over first-half median latency, queries in start order:
    * above 1 the program slows as a session ages, below 1 it is still warming.
    */
  def drift(records: Seq[QueryRecord]): Double = {
    val ms = records.sortBy(_.startNs).map(_.ms)
    if (ms.length < 2) 1.0
    else {
      val (first, second) = ms.splitAt(ms.length / 2)
      median(second) / median(first)
    }
  }

  /** A count per second of a span in ms; 0 for an empty span. */
  def perSecond(count: Double, ms: Double): Double = if (ms > 0) count / (ms / 1000) else 0.0
}

/** Checks one single-source answer against ground truth. */
object Checker {

  /** `None` if the scores pass: all finite and in [0, 1], `S(i,i) = 1`, and
    * MaxError ≤ ε against `truth`; otherwise the first reason they fail.
    */
  def verdict(source: Int, scores: Array[Double], truth: Array[Double], eps: Double): Option[String] = {
    if (scores.length != truth.length) return Some(s"length ${scores.length} != ${truth.length}")
    if (scores(source) != 1.0) return Some(s"S(i,i) = ${scores(source)}")
    var maxErr = 0.0
    var j = 0
    while (j < scores.length) {
      val s = scores(j)
      if (s.isNaN || s < 0.0 || s > 1.0) return Some(s"score($j) = $s outside [0,1]")
      maxErr = math.max(maxErr, math.abs(s - truth(j)))
      j += 1
    }
    if (maxErr > eps) Some(f"MaxError $maxErr%.3e > eps $eps%.0e") else None
  }

  /** Largest absolute difference between two score vectors (∞ on a length mismatch). */
  def maxDiff(a: Array[Double], b: Array[Double]): Double =
    if (a.length != b.length) Double.PositiveInfinity
    else a.indices.foldLeft(0.0)((m, j) => math.max(m, math.abs(a(j) - b(j))))
}
