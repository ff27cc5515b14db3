package repro.exp

import scala.util.Random
import repro.core._

/** T1 (paper Fig 10, §5.1): quality of the three greedy heuristics against
  * the exhaustive optimal algorithm, measured as the ratio of estimated COM
  * execution cost (Eq. (1) probes) to the optimal cost, over random join
  * trees.
  *
  * Paper setup: 100 random trees per match-probability range, up to 20
  * nodes, fanouts uniform in [1, 10], root 2–5 children, others 0–3.
  */
object T1JoinOrderOpt {

  val mRanges: Seq[(Double, Double)] =
    Seq((0.05, 0.2), (0.05, 0.5), (0.1, 0.5), (0.5, 0.9))

  final case class Result(mRange: (Double, Double), heuristic: String, ratios: Seq[Double])

  def comCost(tree: JoinTree, order: Seq[Int]): Double =
    CostModel.cost(tree, order, Approach.Com, flatOutput = false).htProbes

  val Trees    = 100
  val MaxNodes = 18
  val Seed     = 1L

  def run(): Seq[Result] = {
    mRanges.flatMap { mr =>
      val rng = new Random(Seed + (mr._1 * 1000).toLong)
      val ratios = scala.collection.mutable.Map[String, List[Double]]()
        .withDefaultValue(Nil)
      for (_ <- 0 until Trees) {
        val n    = 8 + rng.nextInt(MaxNodes - 7)
        val tree = JoinTree.random(n, mr, (1.0, 10.0), rng)
        val (_, opt) = Optimizer.exhaustiveCom(tree)
        for (h <- Optimizer.Heuristic.all) {
          val c = comCost(tree, Optimizer.greedy(tree, h))
          ratios(h.name) = (c / math.max(opt, 1e-300)) :: ratios(h.name)
        }
      }
      Optimizer.Heuristic.all.map(h => Result(mr, h.name, ratios(h.name).reverse))
    }
  }

  def table(results: Seq[Result]): Seq[String] = {
    val rows = results.map { r =>
      Seq(
        s"[${r.mRange._1},${r.mRange._2}]", r.heuristic,
        Tables.fmt(r.ratios.min), Tables.fmt(Tables.percentile(r.ratios, 25)),
        Tables.fmt(Tables.percentile(r.ratios, 50)), Tables.fmt(Tables.percentile(r.ratios, 75)),
        Tables.fmt(Tables.percentile(r.ratios, 95)), Tables.fmt(r.ratios.max),
      )
    }
    Tables.render(
      "T1 / Fig 10 - heuristic cost / exhaustive-optimal cost (COM model)",
      Seq("m-range", "heuristic", "min", "p25", "median", "p75", "p95", "max"),
      rows,
    )
  }

  /** Paper shape (Fig 10): survival probability ≈ optimal in nearly all
    * cases; rank ordering worst, sometimes by orders of magnitude.
    */
  def gates(results: Seq[Result]): Seq[Gate] = {
    val med = results.map(r => (r.mRange, r.heuristic) -> Tables.percentile(r.ratios, 50)).toMap
    val perRange = mRanges.flatMap { mr =>
      val (surv, rank) = (med((mr, "survival")), med((mr, "rank")))
      val range = s"[${mr._1},${mr._2}]"
      Seq(
        // The paper's ordering of the three heuristics.
        Gate(s"$range: survival median <= rank median + 1e-9", Some(surv <= rank + 1e-9),
          s"survival ${Tables.fmt(surv)}, rank ${Tables.fmt(rank)}"),
        Gate(s"$range: survival median <= 1.6 (close to optimal)", Some(surv <= 1.6),
          s"survival ${Tables.fmt(surv)}"))
    }
    // Rank ordering blows up in at least one configuration (orders of magnitude).
    val worstRank = results.filter(_.heuristic == "rank").flatMap(_.ratios).max
    perRange :+ Gate("worst rank ratio > 3.0 (rank ordering degrades)", Some(worstRank > 3.0),
      s"worst ${Tables.fmt(worstRank)}")
  }
}
