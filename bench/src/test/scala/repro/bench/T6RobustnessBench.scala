package repro.bench

import repro.exp.T6Robustness

/** T6 / paper Fig 15: execution-cost spread over random join orders, per
  * approach. Paper shape: COM variants are far more robust than STD; the
  * SJ+COM combination shows almost no variation across orders (Thm 3.5).
  */
class T6RobustnessBench extends BenchSpec {

  test("T6: robustness of the six approaches across random join orders") {
    val rows = T6Robustness.run(spark)
    emit(T6Robustness.table(rows))

    for (q <- rows.map(_.query).distinct) {
      def spread(a: String): Double = {
        val r = rows.find(x => x.query == q && x.approach == a).get
        r.normalized.max - r.normalized.min
      }
      // SJ+COM: essentially order-independent.
      assert(spread("SJ+COM") < 0.05, s"$q: SJ+COM spread ${spread("SJ+COM")}")
      // COM no less robust than STD on the same query (small tolerance).
      assert(spread("COM") <= spread("STD") + 0.10,
        s"$q: COM ${spread("COM")} vs STD ${spread("STD")}")
    }
  }
}
