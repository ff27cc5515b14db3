package repro.bench

import repro.exp.T4Simulation

/** T4 / paper Fig 13: analytic cost of the five approaches as the match
  * probability sweeps 0.1 → 0.9 for fanouts 2 and 5. Paper shape: STD
  * variants competitive at low m, COM variants win increasingly as m (and
  * fo) grow; BVP+COM best at low m, plain COM best at the highest m.
  */
class T4SimulationBench extends BenchSpec {

  test("T4: simulation analysis across shapes, m, fo") {
    val cells = T4Simulation.run()
    emit(T4Simulation.table(cells))

    // COM's advantage over BVP+STD grows with m for high fanout.
    for ((shape, _, _) <- Seq(("star7", 0, 0), ("path11", 0, 0))) {
      val hiFo = cells.filter(c => c.shape == shape && c.fo == 5.0).sortBy(_.m)
      val gapLow  = hiFo.head.costs("BVP+STD") / hiFo.head.costs("COM")
      val gapHigh = hiFo.last.costs("BVP+STD") / hiFo.last.costs("COM")
      assert(gapHigh >= gapLow, s"$shape: gap should grow with m ($gapLow → $gapHigh)")
    }
    // At the highest match probabilities plain COM is best among COM variants
    // (bitvector / semi-join probes are pure overhead there).
    val top = cells.filter(c => c.m >= 0.9)
    val comBest = top.count(c =>
      c.costs("COM") <= c.costs("BVP+COM") + 1e-9 &&
      c.costs("COM") <= c.costs("SJ+COM") + 1e-9)
    assert(comBest >= top.size * 3 / 4, s"COM best in $comBest of ${top.size} high-m cells")
  }
}
