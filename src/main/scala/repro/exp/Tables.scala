package repro.exp

/** Tiny fixed-width table formatter + order statistics for the experiment
  * harnesses, which render every table through it.
  */
object Tables {

  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty)
    val s   = xs.sorted
    val idx = math.min(s.length - 1, math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
    s(idx)
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length

  /** Pearson correlation coefficient. */
  def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    require(xs.length == ys.length && xs.length >= 2)
    val mx = mean(xs); val my = mean(ys)
    val cov = xs.zip(ys).map { case (x, y) => (x - mx) * (y - my) }.sum
    val vx  = math.sqrt(xs.map(x => (x - mx) * (x - mx)).sum)
    val vy  = math.sqrt(ys.map(y => (y - my) * (y - my)).sum)
    if (vx == 0 || vy == 0) 0.0 else cov / (vx * vy)
  }

  /** Render rows with a header as an aligned ASCII table. */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): Seq[String] = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    s"== $title ==" +: line(header) +: sep +: rows.map(line)
  }

  def fmt(x: Double): String =
    if (x.isInfinite) "inf"
    else if (x == 0) "0"
    else if (math.abs(x) >= 1000) f"$x%.3e"
    else if (math.abs(x) >= 10) f"$x%.1f"
    else f"$x%.3f"
}
