package repro.exp

import org.apache.spark.sql.SparkSession
import scala.util.Random
import repro.core._
import repro.data.TreeData
import repro.engine.Engine

/** T5 (paper Fig 14, §5.5): does the cost model track real execution?
  * For several query shapes we draw `NOrders` distinct random valid join
  * orders (path5 has exactly 6, so it runs all of them), predict the
  * weighted cost of COM and STD from the *measured* per-edge statistics,
  * execute, and report the correlation and relative error between
  * predicted cost and measured weighted probes. STD's larger error is
  * bookkeeping: the model charges every intermediate tuple STD generates,
  * `ProbeLog.weighted` only the output rows (EXPERIMENTS.md, T5).
  */
object T5CostValidation {

  final case class Point(query: String, approach: String, predicted: Double,
                         measured: Double)

  val queries: Seq[Shape] = Seq(Shape.star(5), Shape.path(5), Shape.snow(2, 2))
  val approaches: Seq[Approach] = Seq(Approach.Com, Approach.Std)
  val Driver  = 6000.0
  val NOrders = 6
  val Seed    = 17L

  def run(spark: SparkSession): Seq[Point] = {
    val w = Weights()
    queries.zipWithIndex.flatMap { case (shape, qi) =>
      val rng  = new Random(Seed + qi)
      val tree = shape(Harness.drawStats(shape.edges, 0.1, 0.5, 1.0, 4.0, rng), Driver)
      Harness.withCachedQuery(spark, tree, Seed + 100 + qi) { q =>
        // Predict with *measured* statistics so generator noise does not
        // blur the model-vs-execution comparison.
        val mTree  = TreeData.measuredTree(q)
        val orders = Harness.distinctOrders(tree, NOrders, rng)
        for (order <- orders; a <- approaches) yield {
          val pred = CostModel.cost(mTree, order, a, flatOutput = true).total(w)
          val log  = Engine.run(q, order, a, counting = true, flatOutput = true).log
          Point(shape.name, a.name, pred, log.weighted(w))
        }
      }
    }
  }

  def table(pts: Seq[Point]): Seq[String] = {
    val rows = for {
      q <- pts.map(_.query).distinct
      a <- pts.map(_.approach).distinct
      sel = pts.filter(p => p.query == q && p.approach == a) if sel.length >= 2
    } yield {
      val relErr = sel.map(p => math.abs(p.predicted - p.measured) / math.max(p.measured, 1.0))
      Seq(q, a, sel.length.toString,
        Tables.fmt(Tables.pearson(sel.map(_.predicted), sel.map(_.measured))),
        Tables.fmt(Tables.percentile(relErr, 50)),
        Tables.fmt(Tables.percentile(relErr, 90)))
    }
    Tables.render(
      "T5 / Fig 14 - cost model vs execution (per query shape & approach)",
      Seq("query", "approach", "#orders", "corr(pred, probes)", "relerr p50", "relerr p90"),
      rows)
  }

  /** Paper shape (Fig 14): predicted costs align well with measured
    * execution across query shapes (a near-diagonal scatter). Here: high
    * positive correlation between model cost and measured weighted probes,
    * checked where at least 5 orders with distinct predictions were drawn.
    */
  def gates(pts: Seq[Point]): Seq[Gate] =
    for (q <- pts.map(_.query).distinct; a <- pts.map(_.approach).distinct) yield {
      val sel   = pts.filter(p => p.query == q && p.approach == a)
      val claim = s"$q/$a: corr(pred, probes) > 0.85"
      if (sel.length >= 5 && sel.map(_.predicted).distinct.length > 1) {
        val corr = Tables.pearson(sel.map(_.predicted), sel.map(_.measured))
        Gate(claim, Some(corr > 0.85), s"corr ${Tables.fmt(corr)}")
      } else Gate(claim, None,
        if (sel.length < 5) s"${sel.length} orders < 5" else "one predicted cost for every order")
    }
}
