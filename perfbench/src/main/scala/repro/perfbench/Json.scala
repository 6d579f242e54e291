package repro.perfbench

/** Just enough JSON for one-line result objects. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case ch if ch < ' ' => b ++= f"\\u${ch.toInt}%04x"
      case ch => b += ch
    }
    (b += '"').result()
  }

  /** A number with all its digits; non-finite values have no JSON form. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def num(x: Long): String = x.toString

  def bool(b: Boolean): String = b.toString

  def obj(fields: (String, String)*): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
