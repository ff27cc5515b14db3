package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.Estimation
import repro.data.PairData

/** T7 (paper Fig 4, §3.2): Q-error of match-probability and fanout
  * estimation — the naive distinct-value estimator vs index-based join
  * sampling (Leis et al., CIDR 2017; the paper names correlated sampling)
  * at three sample sizes — over randomly configured two-relation joins,
  * split into low-match-probability (m < 0.1) and the rest, as the paper
  * does. (Paper used CE-benchmark DBLP; we use the PairData substitute —
  * see DESIGN.md.)
  */
object T7Estimation {

  final case class Obs(trueM: Double, estimator: String,
                       qErrM: Double, qErrFo: Double)

  val NR          = 20000L
  val Seed        = 23L
  val SampleSizes = Seq(100, 1000, 5000)

  def run(spark: SparkSession): Seq[Obs] = {
    val configs = for {
      overlap <- Seq(0.02, 0.1, 0.3, 0.7, 1.0)
      alpha   <- Seq(None, Some(0.8))
      nS      <- Seq(NR / 2, NR * 2)
    } yield (overlap, alpha, nS)

    configs.zipWithIndex.flatMap { case ((overlap, alpha, nS), i) =>
      val (r, s) = PairData.pair(spark, NR, nS, overlap, alpha, Seed + i)
      val rc = r.persist(); val sc = s.persist()
      try {
        val t     = Estimation.trueStats(rc, "a", sc, "a")
        val naive = Estimation.naive(rc, "a", sc, "a")
        val base  = Obs(t.m, "naive",
          Estimation.qError(naive.m, t.m), Estimation.qError(naive.fo, t.fo))
        val samples = SampleSizes.map { k =>
          val e = Estimation.sampled(rc, "a", sc, "a", k, Seed + 31 * i + k)
          Obs(t.m, s"sample-$k",
            Estimation.qError(e.m, t.m), Estimation.qError(e.fo, t.fo))
        }
        base +: samples
      } finally { rc.unpersist(blocking = false); sc.unpersist(blocking = false); () }
    }
  }

  def table(obs: Seq[Obs]): Seq[String] = {
    val groups = Seq(
      "low m (<0.1)"  -> obs.filter(_.trueM < 0.1),
      "high m (>=0.1)" -> obs.filter(_.trueM >= 0.1),
    )
    val rows = for {
      (g, os)  <- groups if os.nonEmpty
      est      <- os.map(_.estimator).distinct.sorted
      sel = os.filter(_.estimator == est)
    } yield Seq(
      g, est,
      Tables.fmt(Tables.percentile(sel.map(_.qErrM), 50)),
      Tables.fmt(Tables.percentile(sel.map(_.qErrM), 90)),
      Tables.fmt(sel.map(_.qErrM).max),
      Tables.fmt(Tables.percentile(sel.map(_.qErrFo), 50)),
      Tables.fmt(Tables.percentile(sel.map(_.qErrFo), 90)),
      Tables.fmt(sel.map(_.qErrFo).max),
    )
    Tables.render(
      "T7 / Fig 4 - Q-error of m and fo estimation",
      Seq("m group", "estimator", "qerr(m) p50", "p90", "max",
          "qerr(fo) p50", "p90", "max"),
      rows)
  }

  /** Paper shape (Fig 4): even small samples estimate both quantities well
    * (fanouts especially), while the naive estimator fails badly for
    * low-match-probability joins.
    */
  def gates(obs: Seq[Obs]): Seq[Gate] = {
    // Naive's failure mode on low-m queries lives in the tail (the paper's
    // DBLP run had the same shape: one huge naive outlier, stddev 9.44);
    // sampling keeps the tail bounded.
    val lowM   = obs.filter(_.trueM < 0.1)
    val naive  = lowM.filter(_.estimator == "naive").map(_.qErrM)
    val sample = lowM.filter(_.estimator == "sample-5000").map(_.qErrM)
    val tail   = "low m: sample-5000 qerr(m) p90 <= naive p90"
    val tailGate =
      if (naive.nonEmpty && sample.nonEmpty) {
        val (s90, n90) = (Tables.percentile(sample, 90), Tables.percentile(naive, 90))
        Gate(tail, Some(s90 <= n90), s"sample ${Tables.fmt(s90)}, naive ${Tables.fmt(n90)}")
      } else Gate(tail, None, "no low-m query")
    // Fanout estimation with the largest sample is accurate where matches
    // are plentiful (high-m group; the low-m zipf-hub group is noisy by
    // construction, as the paper also observes).
    val foErr = obs.filter(o => o.estimator == "sample-5000" && o.trueM >= 0.1).map(_.qErrFo)
    val fo50  = Tables.percentile(foErr, 50)
    Seq(tailGate,
      Gate("high m: sample-5000 qerr(fo) p50 <= 1.3", Some(fo50 <= 1.3), s"p50 ${Tables.fmt(fo50)}"))
  }
}
