package repro.exp

import org.apache.spark.sql.SparkSession
import scala.util.Random
import repro.core._
import repro.engine.{Engine, ProbeLog}

/** T2 (paper Fig 11, §5.2): the synthetic benchmark. For each query shape ×
  * match-probability range we draw per-edge statistics, materialize the
  * dataset, execute all six approaches with the survival-probability order
  * (the paper's default), and report weighted probes and their ratio to
  * COM — in flat-output mode and (for COM variants) in factorized-output
  * mode. Wall time is measured by `perfbench/`, not here.
  *
  * STD variants whose *estimated* cost exceeds `Harness.ProbeCap` are
  * reported as TIMEOUT, mirroring the paper's timed-out red data points;
  * queries are re-drawn until the expected output fits `OutCap` (the paper
  * filtered queries by result size the same way).
  */
object T2Synthetic {

  /** The paper's shapes without snow5-1, dropped purely for wall-clock
    * budget (it behaves like snow3-2 — same two-level snowflake class).
    */
  val shapes: Seq[Shape] = Shape.paper.take(3)
  val mRanges: Seq[(Double, Double)] = Seq((0.05, 0.2), (0.5, 0.9))
  val Driver = 6000.0
  val OutCap = 2e6
  val Seed   = 5L

  final case class RunRow(shape: String, mRange: String, approach: String,
                          outMode: String, status: String, weighted: Double)
      extends VsCom {
    def key: (String, String) = (shape, mRange)
    def cells: Seq[String]    = Seq(shape, mRange, approach, outMode)
    def isBase: Boolean       = approach == "COM" && outMode == "flat"
  }

  /** Draws statistics (fo in [1, 5)) until the expected output fits
    * `OutCap`, giving up after 102 draws.
    */
  def sampleTree(shape: Shape, mr: (Double, Double), rng: Random): JoinTree = {
    def draw() = shape(Harness.drawStats(shape.edges, mr._1, mr._2 - mr._1, 1.0, 4.0, rng), Driver)
    Iterator.continually(draw()).zipWithIndex
      .collectFirst { case (t, tries) if t.expectedOutput <= OutCap || tries > 100 => t }
      .get
  }

  def run(spark: SparkSession): Seq[RunRow] = {
    val w = Weights()
    for {
      (shape, si) <- shapes.zipWithIndex
      (mr, ri)    <- mRanges.zipWithIndex
      row <- {
        val tree  = sampleTree(shape, mr, new Random(Seed + si * 31 + ri))
        val label = s"[${mr._1},${mr._2}]"
        Harness.withCachedQuery(spark, tree, Seed + si * 97 + ri) { q =>
          def row(a: Approach, outMode: String, log: Option[ProbeLog]): RunRow = log match {
            case None    => RunRow(shape.name, label, a.name, outMode, "TIMEOUT", -1.0)
            case Some(l) => RunRow(shape.name, label, a.name, outMode, "ok", l.weighted(w))
          }
          val order = Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)
          val flat  = Harness.flatRuns(q, order).map { case (a, log) => row(a, "flat", log) }
          val fact  = Engine.run(q, order, Approach.Com, counting = true, flatOutput = false)
          flat :+ row(Approach.Com, "factorized", Some(fact.log))
        }
      }
    } yield row
  }

  def table(rows: Seq[RunRow]): Seq[String] =
    Harness.vsComTable(
      "T2 / Fig 11 - synthetic benchmark, six approaches (ratios vs COM flat)",
      Seq("shape", "m-range", "approach", "output"), rows)

  /** Paper shape (Fig 11): COM variants beat STD variants (often by orders
    * of magnitude; STD sometimes times out); BVP or SJ alone are not
    * competitive with COM.
    */
  def gates(rows: Seq[RunRow]): Seq[Gate] = {
    val ok = rows.filter(r => r.status == "ok" && r.outMode == "flat")
    def probes(shape: String, mr: String, a: String): Option[Double] =
      ok.find(r => r.shape == shape && r.mRange == mr && r.approach == a).map(_.weighted)
    // For every query, COM's weighted probes never exceed STD's (when STD
    // did not time out), and COM clearly beats STD on some query, or STD
    // times out on one.
    val pairs = for {
      s  <- rows.map(_.shape).distinct
      mr <- rows.map(_.mRange).distinct
      c  <- probes(s, mr, "COM")
      st <- probes(s, mr, "STD")
    } yield (c, st)
    val timeouts   = rows.count(r => r.status == "TIMEOUT")
    val strictWins = pairs.count { case (c, st) => c < st * 0.8 }
    Seq(
      Gate("COM <= STD * 1.05 in weighted probes on every flat query",
        Some(pairs.forall { case (c, st) => c <= st * 1.05 }),
        pairs.map { case (c, st) => c / st }.maxOption.fold("no query")(r => s"worst COM/STD ${Tables.fmt(r)}")),
      Gate("COM < STD * 0.8 on some query, or an STD TIMEOUT", Some(strictWins + timeouts > 0),
        s"$strictWins of ${pairs.size} queries, $timeouts timeouts"))
  }
}
