package repro.core

import scala.util.Random

/** Robustness analysis for star queries (§3.7), following the
  * fragility/robustness framework of Zhu et al. [54].
  *
  * An evaluation strategy is θ-fragile and Θ-robust if the maximum
  * deviation of any plan from the best plan — normalized by the driver
  * cardinality and by the statistic spread — is bounded between θ and Θ.
  * The paper derives the bounds for the classical selectivity cost model
  * (spread s_max − s_min) and shows the COM model tightens them by
  * replacing selectivities with match probabilities (for a star query,
  * fanouts drop out of the COM cost entirely).
  */
object Robustness {

  private def geomSum(x: Double, from: Int, to: Int): Double =
    (from to to).map(i => math.pow(x, i)).sum

  // The bounds and the star cost have one form for both cost models; only
  // the statistic differs. The selectivity (STD) model feeds them
  // selectivities s = m × fo, the COM model match probabilities m.

  /** θ: (1 − x_min^{n-1}) / (1 − x_min). */
  def theta(xMin: Double, n: Int): Double =
    if (math.abs(1.0 - xMin) < 1e-12) (n - 1).toDouble
    else (1.0 - math.pow(xMin, n - 1)) / (1.0 - xMin)

  /** Θ: (Σ_{i=1}^{n-2} x_max^i − x_min^i) / (x_max − x_min). */
  def bigTheta(xMin: Double, xMax: Double, n: Int): Double = {
    require(xMax > xMin)
    (geomSum(xMax, 1, n - 2) - geomSum(xMin, 1, n - 2)) / (xMax - xMin)
  }

  /** Exact per-driver-tuple cost of a star-query order: 1 + x₁ + x₁x₂ + ...
    * For STD that is 1 + s₁ + s₁s₂ + ...; for COM 1 + m₁ + m₁m₂ + ...
    * (Eq. (1) — all joins are on driver attributes, so fanouts never
    * expand the probe stream).
    */
  def starCost(x: Seq[Double]): Double =
    x.init.scanLeft(1.0)(_ * _).sum

  /** Normalized maximum deviation over the full plan space of a star query
    * (ascending order is best, descending worst for either model).
    */
  def maxDeviation(stat: Seq[Double]): Double = {
    val spread = stat.max - stat.min
    require(spread > 0, "degenerate spread")
    val best  = starCost(stat.sorted)
    val worst = starCost(stat.sorted.reverse)
    (worst - best) / spread
  }

  /** One trial of the Fig-6 simulation: draw true (m, fo) for each of
    * `nJoins` star satellites, perturb them by a relative error drawn from
    * `errRange` (random sign), pick the best order under the *estimated*
    * statistics, and report the percentage cost penalty relative to the
    * best order under the *true* statistics — for both cost models.
    */
  final case class Trial(stdPct: Double, comPct: Double)

  def simulateOnce(nJoins: Int, mRange: (Double, Double), foRange: (Double, Double),
                   errRange: (Double, Double), rng: Random): Trial = {
    def u(lo: Double, hi: Double) = lo + rng.nextDouble() * (hi - lo)
    val m  = Array.fill(nJoins)(u(mRange._1, mRange._2))
    val fo = Array.fill(nJoins)(u(foRange._1, foRange._2))
    val s  = Array.tabulate(nJoins)(i => m(i) * fo(i))
    def perturb(x: Double): Double = {
      val e = u(errRange._1, errRange._2) * (if (rng.nextBoolean()) 1 else -1)
      math.max(1e-6, x * (1.0 + e))
    }
    val mEst  = m.map(x => math.min(1.0, perturb(x)))
    val foEst = fo.map(x => math.max(1.0, perturb(x)))
    val sEst  = Array.tabulate(nJoins)(i => mEst(i) * foEst(i))

    // Best order under a statistic = ascending sort; cost of executing an
    // order chosen on estimates, evaluated on the true statistics.
    def penalty(estKey: Array[Double], trueVal: Array[Double]): Double = {
      val chosen  = estKey.zipWithIndex.sortBy(_._1).map(_._2)
      val chosenC = starCost(chosen.map(trueVal).toSeq)
      val bestC   = starCost(trueVal.sorted.toSeq)
      100.0 * (chosenC - bestC) / bestC
    }
    Trial(stdPct = penalty(sEst, s), comPct = penalty(mEst, m))
  }

  def simulate(nJoins: Int, mRange: (Double, Double), foRange: (Double, Double),
               errRange: (Double, Double), trials: Int, seed: Long): Seq[Trial] = {
    val rng = new Random(seed)
    Seq.fill(trials)(simulateOnce(nJoins, mRange, foRange, errRange, rng))
  }
}
