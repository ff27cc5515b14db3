package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RobustnessSpec extends AnyFunSuite {
  import Robustness._

  test("star cost: ascending order is the plan-space minimum") {
    val rng = new Random(31)
    for (_ <- 0 until 20) {
      val s    = Seq.fill(5)(0.1 + rng.nextDouble() * 2)
      val best = starCost(s.sorted)
      for (_ <- 0 until 20) {
        val perm = rng.shuffle(s)
        assert(starCost(perm) >= best - 1e-12)
      }
    }
  }

  test("theta closed form is the geometric sum Σ s_min^i") {
    val s = 0.3; val n = 5
    val expected = (0 until n - 1).map(i => math.pow(s, i)).sum
    assert(math.abs(theta(s, n) - expected) < 1e-12)
  }

  test("theta at s_min → 1 degenerates to n-1") {
    assert(math.abs(theta(1.0, 6) - 5.0) < 1e-9)
  }

  test("bigTheta formula matches its explicit sum") {
    val (lo, hi, n) = (0.2, 0.8, 6)
    val expected = (1 to n - 2).map(i => math.pow(hi, i) - math.pow(lo, i)).sum / (hi - lo)
    assert(math.abs(bigTheta(lo, hi, n) - expected) < 1e-12)
  }

  test("COM bounds never exceed STD bounds when m <= s") {
    // m ≤ s always (fo ≥ 1), and θ/Θ are monotone in their statistic.
    val rng = new Random(37)
    for (_ <- 0 until 50) {
      val mMin = rng.nextDouble() * 0.5
      val fo   = 1 + rng.nextDouble() * 9
      val sMin = mMin * fo
      assert(theta(mMin, 8) <= theta(sMin, 8) + 1e-12)
    }
  }

  test("maxDeviation is bounded by bigTheta over the instance spread") {
    val rng = new Random(41)
    for (_ <- 0 until 50) {
      val nSats = 3 + rng.nextInt(5)
      val stat  = Seq.fill(nSats)(0.05 + rng.nextDouble() * 0.9)
      if (stat.max - stat.min > 1e-6) {
        val dev   = maxDeviation(stat)
        val bound = bigTheta(stat.min, stat.max, nSats + 1)
        assert(dev <= bound + 1e-9, s"dev=$dev bound=$bound stats=$stat")
      }
    }
  }

  test("simulation: zero estimation error yields zero penalty") {
    val ts = simulate(8, (0.1, 0.5), (1, 5), (0.0, 0.0), 20, 43L)
    assert(ts.forall(t => t.stdPct < 1e-9 && t.comPct < 1e-9))
  }

  test("simulation penalties are non-negative") {
    val ts = simulate(10, (0.05, 0.5), (1, 10), (0.9, 0.95), 50, 47L)
    assert(ts.forall(t => t.stdPct >= -1e-9 && t.comPct >= -1e-9))
  }

  test("high fanout + high error: the COM model is more robust on average") {
    // The paper's Fig 6 headline: with fanouts in [10,100] and 90-95%
    // errors, the selectivity-based model picks much worse plans.
    val ts = simulate(10, (0.05, 0.5), (10, 100), (0.90, 0.95), 200, 53L)
    val stdMean = ts.map(_.stdPct).sum / ts.length
    val comMean = ts.map(_.comPct).sum / ts.length
    assert(comMean <= stdMean)
  }

  test("fanouts in [1,2]: both models behave similarly (paper's observation)") {
    val ts = simulate(10, (0.1, 0.5), (1, 2), (0.15, 0.20), 200, 59L)
    val stdMean = ts.map(_.stdPct).sum / ts.length
    val comMean = ts.map(_.comPct).sum / ts.length
    assert(math.abs(stdMean - comMean) < math.max(1.0, stdMean))
  }

  test("maxDeviation requires a positive spread") {
    intercept[IllegalArgumentException](maxDeviation(Seq(0.5, 0.5, 0.5)))
  }
}
