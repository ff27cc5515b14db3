package repro.exp

import org.apache.spark.sql.SparkSession
import scala.util.Random
import repro.core._
import repro.engine.Engine

/** T6 (paper Fig 15, §5.6): robustness to the join order. For each query we
  * execute several uniformly random valid join orders (driver fixed) under
  * all six approaches and report, per approach, the spread of the weighted
  * probe cost normalized by that approach's worst order — the paper's
  * relative-robustness box plot as a table. COM variants should show small
  * spreads and SJ+COM almost none (Thm 3.5).
  */
object T6Robustness {

  final case class Row(query: String, approach: String, normalized: Seq[Double])

  val queries: Seq[Shape] = Seq(Shape.star(6), Shape.snow(2, 2))
  val Driver  = 2000.0
  val NOrders = 4
  val Seed    = 29L

  def run(spark: SparkSession): Seq[Row] = {
    val w = Weights()
    queries.zipWithIndex.flatMap { case (shape, qi) =>
      val rng  = new Random(Seed + qi)
      val tree = shape(Harness.drawStats(shape.edges, 0.2, 0.4, 1.0, 3.0, rng), Driver)
      Harness.withCachedQuery(spark, tree, Seed + 100 + qi) { q =>
        val orders = Harness.distinctOrders(tree, NOrders, rng)
        Approach.all.map { a =>
          val probes = orders.map(o => Engine.run(q, o, a, counting = true).log.weighted(w))
          val maxP   = math.max(probes.max, 1e-9)
          Row(shape.name, a.name, probes.map(_ / maxP))
        }
      }
    }
  }

  def table(rows: Seq[Row]): Seq[String] =
    Tables.render(
      "T6 / Fig 15 - robustness across random join orders " +
        "(weighted probes normalized by each approach's worst order)",
      Seq("query", "approach", "min", "median", "max", "spread(max-min)"),
      rows.map { r =>
        Seq(r.query, r.approach,
          Tables.fmt(r.normalized.min),
          Tables.fmt(Tables.percentile(r.normalized, 50)),
          Tables.fmt(r.normalized.max),
          Tables.fmt(r.normalized.max - r.normalized.min))
      })

  /** Paper shape (Fig 15): COM variants are far more robust than STD; the
    * SJ+COM combination shows almost no variation across orders (Thm 3.5).
    */
  def gates(rows: Seq[Row]): Seq[Gate] =
    rows.map(_.query).distinct.flatMap { q =>
      def spread(a: String): Double = {
        val r = rows.find(x => x.query == q && x.approach == a).get
        r.normalized.max - r.normalized.min
      }
      Seq(
        // SJ+COM: essentially order-independent.
        Gate(s"$q: SJ+COM spread < 0.05", Some(spread("SJ+COM") < 0.05),
          s"spread ${Tables.fmt(spread("SJ+COM"))}"),
        // COM no less robust than STD on the same query (small tolerance).
        Gate(s"$q: COM spread <= STD spread + 0.10", Some(spread("COM") <= spread("STD") + 0.10),
          s"COM ${Tables.fmt(spread("COM"))}, STD ${Tables.fmt(spread("STD"))}"))
    }
}
