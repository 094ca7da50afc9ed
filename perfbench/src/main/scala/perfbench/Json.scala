package perfbench

/** The result line the benchmark prints last on stdout. */
object Json {
  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "0" else java.math.BigDecimal.valueOf(x).toPlainString

  def result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (name, value, unit) => s""""$name": {"value": ${num(value)}, "unit": "$unit"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
