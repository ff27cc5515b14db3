package repro.bench

import repro.exp.{T1JoinOrderOpt, Tables}

/** T1 / paper Fig 10: heuristic plan quality vs the exhaustive optimum.
  * Paper shape to reproduce: survival-probability ≈ optimal in nearly all
  * cases; rank ordering worst, sometimes by orders of magnitude.
  */
class T1JoinOrderOptBench extends BenchSpec {

  test("T1: heuristics vs exhaustive optimal over random join trees") {
    val results = T1JoinOrderOpt.run(trees = 100, maxNodes = 18, seed = 1L)
    emit(T1JoinOrderOpt.table(results))

    val med = results.map(r => (r.mRange, r.heuristic) -> Tables.percentile(r.ratios, 50)).toMap
    for (mr <- T1JoinOrderOpt.mRanges) {
      // The paper's ordering of the three heuristics.
      assert(med((mr, "survival")) <= med((mr, "rank")) + 1e-9, s"range $mr")
      assert(med((mr, "survival")) <= 1.6, s"survival close to optimal in range $mr")
    }
    // Rank ordering blows up in at least one configuration (orders of magnitude).
    val worstRank = results.filter(_.heuristic == "rank").flatMap(_.ratios).max
    assert(worstRank > 3.0, s"expected rank ordering to degrade, worst=$worstRank")
  }
}
