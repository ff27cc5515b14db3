package repro.data

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Seeded random draws shared by the data generators. */
private[data] object Draw {

  /** Seeded pseudo-uniform in [0, 1) derived from a column. */
  def u01(c: Column, seed: Long): Column =
    pmod(xxhash64(c, lit(seed)), lit(1000000L)).cast("double") / 1e6

  /** A zipf-distributed rank in [1, n] with exponent `alpha`, drawn by
    * inverting the law at the uniform `u` in [0, 1).
    */
  def zipf(u: Column, n: Long, alpha: Double): Column =
    least(lit(n),
      greatest(lit(1L),
        pow(lit(1.0) / (u * zipfNorm(n, alpha) + 1e-9), lit(1.0 / alpha)).cast("long")))

  /** Normalizer of a zipf law with exponent `alpha` over ranks 1..n,
    * truncated at rank 5000.
    */
  private def zipfNorm(n: Long, alpha: Double): Double =
    (1L to math.min(n, 5000L)).map(k => 1.0 / math.pow(k.toDouble, alpha)).sum
}
