package perfbench

import scala.util.Random
import repro.core.{EdgeStats, JoinTree}

/** A query shape: a name, its number of edges, and the tree builder. */
final case class Shape(name: String, edges: Int, build: Seq[EdgeStats] => JoinTree)

/** A synthetic workload: the query shapes it runs and the per-edge
  * statistics ranges they are drawn from.
  *
  * @param targetOut expected flat-result rows per query; the driver size
  *                  of each query is set to reach it
  */
final case class Workload(name: String, shapes: Seq[Shape], mRange: (Double, Double),
                          foRange: (Double, Double), targetOut: Double) {

  /** The statistics of query `shape`: edge j of k gets the midpoint of the
    * j-th of k equal slices of each range, in an order fixed per shape. The
    * statistics, and with them the join order and the work, are the same
    * for every seed; the seed draws the data (which rows match and how
    * many copies each gets), so runs with different seeds stay comparable.
    */
  def tree(shape: Shape): JoinTree = {
    val rng = new Random(shape.name.hashCode.toLong)
    def strata(r: (Double, Double)): Seq[Double] = rng.shuffle(
      (0 until shape.edges).map(j => r._1 + (r._2 - r._1) * (j + 0.5) / shape.edges))
    val t0 = shape.build(strata(mRange).zip(strata(foRange)).map { case (m, fo) => EdgeStats(m, fo) })
    val driver = math.max(1.0, math.rint(targetOut / (t0.expectedOutput / t0.driverSize)))
    new JoinTree(t0.parent, t0.stats, t0.probeCost, driver)
  }
}

object Workloads {

  /** The paper's centred path query at four relations: the driver with
    * arms of two and one relations, so COM's survival bookkeeping runs at
    * depth two and across branches. The paper's full-size shapes (star7,
    * path11, snow3-2) take about a minute per round of the seven strategies
    * on four cores, while a whole run, JVM and Spark start included, has
    * about a minute.
    */
  val shapes: Seq[Shape] = Seq(Shape("path4", 3, JoinTree.centeredPath(4, _)))

  val all: Seq[Workload] = Seq(
    // High match probability and a 3e4-row flat result: data volume makes
    // each round slower than on synth-sparse, but the fixed cost of the
    // Spark jobs (about twenty per COM call) still weighs most.
    Workload("synth-dense", shapes, (0.5, 0.9), (1.0, 5.0), targetOut = 3e4),
    // Low match probability: tiny intermediates, so the fixed cost of Spark
    // jobs and Catalyst planning dominates.
    Workload("synth-sparse", shapes, (0.05, 0.2), (1.0, 5.0), targetOut = 300),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
