package repro.bench

import repro.exp.T3Ce

/** T3 / paper Fig 12: the CE-benchmark experiment over the five synthetic
  * zipf-graph stand-ins. Paper shape: same as the synthetic benchmark —
  * COM variants dominate STD variants on exploding self-join patterns.
  */
class T3CeBench extends BenchSpec {

  test("T3: CE-substitute benchmark, six approaches over five datasets") {
    val rows = T3Ce.run(spark)
    emit(T3Ce.table(rows))

    val ok = rows.filter(_.status == "ok")
    assert(ok.nonEmpty, "at least some queries must execute")
    // COM never worse than STD on weighted probes for the same query.
    val viol = for {
      (ds, qn) <- ok.map(r => (r.dataset, r.query)).distinct
      c  <- ok.find(r => r.dataset == ds && r.query == qn && r.approach == "COM")
      st <- ok.find(r => r.dataset == ds && r.query == qn && r.approach == "STD")
      if c.weighted > st.weighted * 1.05
    } yield (ds, qn)
    assert(viol.isEmpty, s"COM worse than STD on: $viol")
    // Every dataset contributed at least one executed or skipped query row.
    assert(rows.map(_.dataset).distinct.size == 5)
  }
}
