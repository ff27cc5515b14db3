package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Estimators for match probability and fanout (§3.2) plus the Q-error
  * metric used to evaluate them (Fig 4).
  *
  * The probing direction is R → S on R.rKey = S.sKey.
  */
object Estimation {

  /** Ground truth by exact computation. */
  def trueStats(r: DataFrame, rKey: String, s: DataFrame, sKey: String): EdgeStats = {
    val rCount  = r.count().toDouble
    val matched = r.join(s, r(rKey) === s(sKey), "left_semi").count().toDouble
    val joined  = r.join(s, r(rKey) === s(sKey)).count().toDouble
    EdgeStats(
      m = if (rCount == 0) 0.0 else matched / rCount,
      fo = if (matched == 0) 1.0 else joined / matched,
    )
  }

  /** The naive uniformity/independence estimator:
    * m = V(A,S) / max(V(A,R), V(A,S)), fo = |S| / V(A,S).
    */
  def naive(r: DataFrame, rKey: String, s: DataFrame, sKey: String): EdgeStats = {
    val vR = r.select(rKey).distinct().count().toDouble
    val vS = s.select(sKey).distinct().count().toDouble
    val nS = s.count().toDouble
    EdgeStats(
      m = if (math.max(vR, vS) == 0) 0.0 else vS / math.max(vR, vS),
      fo = if (vS == 0) 1.0 else nS / vS,
    )
  }

  /** Index-based join sampling (Leis et al., "Cardinality Estimation Done
    * Right: Index-Based Join Sampling", CIDR 2017): the exact statistics
    * (`trueStats`) of a uniform sample of `sampleSize` rows of R, each
    * probed against all of S. The sample is persisted, so every count reads
    * the same rows.
    */
  def sampled(r: DataFrame, rKey: String, s: DataFrame, sKey: String,
              sampleSize: Int, seed: Long): EdgeStats = {
    val sample = r.orderBy(rand(seed)).limit(sampleSize).persist()
    try trueStats(sample, rKey, s, sKey)
    finally { sample.unpersist(blocking = false); () }
  }

  /** Q-error: max(est/actual, actual/est), with a floor so zero estimates
    * map to a large but finite error.
    */
  def qError(est: Double, actual: Double): Double = {
    val e = math.max(est, 1e-6)
    val a = math.max(actual, 1e-6)
    math.max(e / a, a / e)
  }
}
