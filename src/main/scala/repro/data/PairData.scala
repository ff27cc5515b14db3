package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Two-relation join workloads with controllable *domain overlap* and skew,
  * used to evaluate the match-probability/fanout estimators (T7 / Fig 4).
  *
  * R holds keys 1..nR. S draws nS keys from a window of width nR shifted so
  * that only an `overlap` fraction of it intersects R's domain — this is
  * what breaks the naive distinct-value estimator (it sees many distinct
  * S-values and cannot know how many land inside R), while sampling R's
  * rows and probing S measures the overlap directly. Optional zipf skew
  * concentrates S's keys, creating fanout the naive estimator misjudges.
  */
object PairData {

  def pair(spark: SparkSession, nR: Long, nS: Long, overlap: Double,
           alpha: Option[Double], seed: Long): (DataFrame, DataFrame) = {
    require(overlap >= 0.0 && overlap <= 1.0)
    val r = spark.range(1, nR + 1).select(col("id").as("a"))
    val u = Draw.u01(col("id"), seed)
    // Window [lo+1, lo+nR] with lo = (1-overlap)·nR: exactly `overlap·nR`
    // of its values fall inside R's domain [1, nR].
    val lo = ((1.0 - overlap) * nR).toLong
    val pos = alpha match {
      case None    => (u * nR).cast("long") // uniform position in the window
      case Some(a) => Draw.zipf(u, nR, a) - 1
    }
    val s = spark.range(nS).select((lit(lo) + lit(1L) + pos).as("a"))
    (r, s)
  }
}
