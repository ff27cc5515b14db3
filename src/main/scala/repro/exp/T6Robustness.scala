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
        val orders = Iterator.continually(Optimizer.randomOrder(tree, rng))
          .distinct.take(NOrders).toList
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
}
