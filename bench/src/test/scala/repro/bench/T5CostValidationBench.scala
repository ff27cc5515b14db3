package repro.bench

import repro.exp.{T5CostValidation, Tables}

/** T5 / paper Fig 14: predicted cost vs actual execution over random join
  * orders. Paper shape: predicted costs align well with measured execution
  * across query shapes (a near-diagonal scatter). Here: high positive
  * correlation between model cost and measured weighted probes.
  */
class T5CostValidationBench extends BenchSpec {

  test("T5: cost model tracks measured execution across random orders") {
    val pts = T5CostValidation.run(spark)
    emit(T5CostValidation.table(pts))

    for (q <- pts.map(_.query).distinct; a <- pts.map(_.approach).distinct) {
      val sel = pts.filter(p => p.query == q && p.approach == a)
      if (sel.length >= 5 && sel.map(_.predicted).distinct.length > 1) {
        val corr = Tables.pearson(sel.map(_.predicted), sel.map(_.measured))
        assert(corr > 0.85, s"$q/$a: corr(pred, probes) = $corr")
      }
    }
  }
}
