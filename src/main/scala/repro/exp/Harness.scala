package repro.exp

import org.apache.spark.sql.SparkSession
import scala.util.Random
import repro.core._
import repro.data.{TreeData, TreeQuery}
import repro.engine.{Engine, ProbeLog}

/** A query shape of the evaluation (§5.2): its name, its number of join
  * edges, and a builder from per-edge statistics and driver size.
  */
final case class Shape(name: String, edges: Int, build: (Seq[EdgeStats], Double) => JoinTree) {
  def apply(stats: Seq[EdgeStats], driverSize: Double): JoinTree = build(stats, driverSize)
}

object Shape {
  def star(n: Int): Shape = Shape(s"star$n", n - 1, JoinTree.star(n, _, _))
  def path(n: Int): Shape = Shape(s"path$n", n - 1, JoinTree.centeredPath(n, _, _))
  def snow(arms: Int, sub: Int): Shape =
    Shape(s"snow$arms-$sub", arms * (1 + sub), JoinTree.snowflake(arms, sub, _, _))

  /** The paper's four synthetic-benchmark queries. */
  val paper: Seq[Shape] = Seq(star(7), path(11), snow(3, 2), snow(5, 1))
}

/** A plan run that T2 and T3 report relative to the COM run of the same
  * query.
  */
trait VsCom {
  /** Identifies the query. */
  def key: (String, String)
  /** The columns before `status`: the query, the approach and so on. */
  def cells: Seq[String]
  /** Whether this is the COM run the ratios divide by. */
  def isBase: Boolean
  def status: String
  def weighted: Double
}

/** Pieces shared by the experiments that execute plans. */
object Harness {

  /** A plan whose estimated weighted cost exceeds this is not executed and
    * is reported as TIMEOUT, mirroring the paper's timed-out data points.
    */
  val ProbeCap = 3e7

  /** `n` edge statistics: for each edge, m uniform in [mLo, mLo + mWidth),
    * then fo uniform in [foLo, foLo + foWidth).
    */
  def drawStats(n: Int, mLo: Double, mWidth: Double, foLo: Double, foWidth: Double,
                rng: Random): Seq[EdgeStats] =
    Seq.fill(n)(EdgeStats(mLo + rng.nextDouble() * mWidth, foLo + rng.nextDouble() * foWidth))

  /** The first `n` distinct orders among uniformly random valid orders of
    * `tree`; it has to have at least `n` valid orders.
    */
  def distinctOrders(tree: JoinTree, n: Int, rng: Random): List[List[Int]] =
    Iterator.continually(Optimizer.randomOrder(tree, rng)).distinct.take(n).toList

  /** Generates `tree`'s relations, caches and materializes them, runs
    * `body` on the query, and unpersists them afterwards.
    */
  def withCachedQuery[A](spark: SparkSession, tree: JoinTree, seed: Long)
                        (body: TreeQuery => A): A = {
    val q = TreeData.generate(spark, tree, seed)
    q.rels.foreach(r => { r.persist(); r.count() })
    try body(q) finally q.rels.foreach(_.unpersist(blocking = false))
  }

  /** Every approach on `q` in `order` with flat output and probe counting;
    * `None` for a plan over `ProbeCap`.
    */
  def flatRuns(q: TreeQuery, order: Seq[Int]): Seq[(Approach, Option[ProbeLog])] =
    Approach.all.map { a =>
      val est = CostModel.cost(q.tree, order, a, flatOutput = true)
      a -> (if (est.total(Weights()) > ProbeCap) None
            else Some(Engine.run(q, order, a, counting = true, flatOutput = true).log))
    }

  /** The T2/T3 table: each run's weighted probes, and their ratio to the
    * COM run of the same query.
    */
  def vsComTable(title: String, header: Seq[String], rows: Seq[VsCom]): Seq[String] = {
    val base = rows.collect { case r if r.isBase && r.status == "ok" => r.key -> r }.toMap
    val out = rows.map { r =>
      val rp = base.get(r.key) match {
        case Some(c) if r.status == "ok" && c.weighted > 0 => r.weighted / c.weighted
        case _                                             => -1.0
      }
      r.cells ++ Seq(r.status,
        if (r.status == "ok") Tables.fmt(r.weighted) else "-",
        if (rp > 0) Tables.fmt(rp) else "-")
    }
    Tables.render(title, header ++ Seq("status", "weighted probes", "probes/COM"), out)
  }
}
