package repro.core

import repro.SparkSpec
import repro.data.PairData

class EstimationSpec extends SparkSpec {

  test("qError is symmetric and 1 on a perfect estimate") {
    assert(Estimation.qError(2.0, 2.0) == 1.0)
    assert(Estimation.qError(4.0, 2.0) == 2.0)
    assert(Estimation.qError(2.0, 4.0) == 2.0)
  }

  test("qError guards zero estimates with a finite value") {
    assert(Estimation.qError(0.0, 0.5).isFinite)
  }

  test("true stats on full overlap, uniform: m near 1, fo near nS/nR") {
    val (r, s) = PairData.pair(spark, 2000, 8000, overlap = 1.0, alpha = None, seed = 1)
    val t = Estimation.trueStats(r, "a", s, "a")
    assert(t.m > 0.9, s"m=${t.m}")           // 4 draws per key on average
    assert(math.abs(t.fo - 8000.0 / 2000 / t.m) < 1.0, s"fo=${t.fo}")
  }

  test("true stats scale with domain overlap") {
    val (r, s) = PairData.pair(spark, 2000, 4000, overlap = 0.25, alpha = None, seed = 2)
    val t = Estimation.trueStats(r, "a", s, "a")
    assert(t.m < 0.4, s"m=${t.m}") // only a quarter of S's window overlaps R
  }

  test("naive estimator is accurate when domains fully overlap") {
    val (r, s) = PairData.pair(spark, 2000, 8000, overlap = 1.0, alpha = None, seed = 3)
    val t = Estimation.trueStats(r, "a", s, "a")
    val n = Estimation.naive(r, "a", s, "a")
    assert(Estimation.qError(n.m, t.m) < 1.3)
    assert(Estimation.qError(n.fo, t.fo) < 1.3)
  }

  test("naive estimator misjudges m badly on small overlap (the Fig 4 story)") {
    val (r, s) = PairData.pair(spark, 4000, 8000, overlap = 0.05, alpha = None, seed = 4)
    val t = Estimation.trueStats(r, "a", s, "a")
    val n = Estimation.naive(r, "a", s, "a")
    assert(Estimation.qError(n.m, t.m) > 3.0,
      s"naive m=${n.m} true m=${t.m}")
  }

  test("sampling estimator tracks the truth even on small overlap") {
    val (r, s) = PairData.pair(spark, 4000, 8000, overlap = 0.05, alpha = None, seed = 5)
    val t  = Estimation.trueStats(r, "a", s, "a")
    val sm = Estimation.sampled(r, "a", s, "a", sampleSize = 2000, seed = 6)
    assert(Estimation.qError(sm.m, t.m) < 2.0,
      s"sampled m=${sm.m} true m=${t.m}")
  }

  test("larger samples do not hurt fanout estimation") {
    val (r, s) = PairData.pair(spark, 4000, 8000, overlap = 0.5, alpha = Some(0.8), seed = 7)
    val t    = Estimation.trueStats(r, "a", s, "a")
    val big  = Estimation.sampled(r, "a", s, "a", sampleSize = 3000, seed = 8)
    assert(Estimation.qError(big.fo, t.fo) < 1.5,
      s"sampled fo=${big.fo} true fo=${t.fo}")
  }
}
