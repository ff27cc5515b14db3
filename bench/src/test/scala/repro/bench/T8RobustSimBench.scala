package repro.bench

import repro.exp.T8RobustSim

/** T8 / paper Fig 6: robustness of plan choice to estimation errors,
  * star-10, 100 samples per cell. Paper shape: under high errors the
  * selectivity-based model picks much worse plans than the
  * match-probability model, except when fanouts are in [1,2] where the two
  * behave similarly.
  */
class T8RobustSimBench extends BenchSpec {

  test("T8: robustness simulation across m/fo ranges and error levels") {
    val cells = T8RobustSim.run(nJoins = 10, trials = 100, seed = 11L)
    emit(T8RobustSim.table(cells))

    // High-fanout, high-error cells: COM mean penalty below selectivity's.
    val stress = cells.filter(c => c.foRange._2 >= 10 && c.err.startsWith("high"))
    val comWins = stress.count(c => c.comMeanPct <= c.stdMeanPct + 1e-9)
    assert(comWins >= stress.size * 2 / 3,
      s"COM more robust in $comWins of ${stress.size} stressed cells")

    // Fanout in [1,2]: both models within a small factor on average.
    val tame = cells.filter(c => c.foRange == ((1.0, 2.0)) || c.foRange == ((1, 2)))
    for (c <- tame)
      assert(math.abs(c.stdMeanPct - c.comMeanPct) <=
        math.max(2.0, 1.0 * math.max(c.stdMeanPct, c.comMeanPct)),
        s"cell $c should show similar behavior")
  }
}
