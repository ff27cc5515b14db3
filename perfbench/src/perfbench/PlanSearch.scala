package perfbench

import scala.util.Random
import repro.core.{Approach, CostModel, JoinTree, Optimizer, Weights}

/** The Spark-free plan-search phase: random join trees from the paper's
  * §5.1 generator, planned with Algorithm 1 (COM and BVP+COM), the three
  * greedy heuristics, and costed under all six approaches.
  */
object PlanSearch {

  /** Tree sizes and how many trees of each size a run plans. The sizes
    * span the range where Algorithm 1 goes from a few to a few hundred
    * milliseconds.
    */
  val Sizes: Seq[Int] = 12 to 22
  val TreesPerSize    = 2
  /** Match-probability ranges, cycled over the trees of each size. */
  val MRanges: Seq[(Double, Double)] = Seq((0.05, 0.2), (0.2, 0.5), (0.5, 0.9), (0.05, 0.9))
  val FoRange: (Double, Double) = (1.0, 10.0)

  final case class Result(
      exhaustiveMs: Seq[Double],    // per tree; all times are CPU ms
      exhaustiveBvpMs: Seq[Double], // per tree; empty unless asked for
      greedyMs: Seq[Double],        // per heuristic call
      costMs: Seq[Double],          // per CostModel.cost call
      ratios: Map[String, Seq[Double]], // heuristic -> COM cost / optimum, per tree
  )

  /** Seed of the tree shapes, fixed so that every run plans the same
    * shapes: Algorithm 1's running time depends on the shape alone.
    */
  val ShapeSeed = 51L

  /** The trees of a run: fixed shapes from the §5.1 generator, with edge
    * statistics drawn from `seed`.
    */
  def trees(seed: Long): Seq[JoinTree] = {
    val shapes = new Random(ShapeSeed)
    val rng    = new Random(seed)
    def u(r: (Double, Double)) = r._1 + rng.nextDouble() * (r._2 - r._1)
    for (n <- Sizes; k <- 0 until TreesPerSize) yield {
      val mr = MRanges(k % MRanges.length)
      val t  = JoinTree.random(n, mr, FoRange, shapes)
      JoinTree((1 until n).map(i => (t.parent(i), u(mr), u(FoRange))))
    }
  }

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean

  /** Result of `body` and the CPU time of the calling thread in it, in ms.
    * The search is single-threaded, so this is its work; unlike wall time
    * it leaves out time the thread waited for a processor, which on a
    * shared machine varies from run to run by tens of per cent.
    */
  private def timeMs[A](body: => A): (A, Double) = {
    val t0 = threads.getCurrentThreadCpuTime
    val a  = body
    (a, (threads.getCurrentThreadCpuTime - t0) / 1e6)
  }

  private def comCost(t: JoinTree, order: Seq[Int]): Double =
    CostModel.cost(t, order, Approach.Com, flatOutput = false).total(Weights())

  /** Plan every tree; `withBvp` also times Algorithm 1 for BVP+COM. */
  def run(trees: Seq[JoinTree], withBvp: Boolean): Result = {
    // No warm-up pass: the benchmark's JVM runs the client compiler only,
    // which compiles the search within the first trees, and the per-tree
    // medians leave those out.
    val exh, bvp, greedy, cost = Seq.newBuilder[Double]
    val ratios = Optimizer.Heuristic.all.map(_.name -> Seq.newBuilder[Double]).toMap
    for (t <- trees) {
      val ((_, opt), ms) = timeMs(Optimizer.exhaustiveCom(t))
      exh += ms
      if (withBvp) bvp += timeMs(Optimizer.exhaustiveBvpCom(t))._2
      for (h <- Optimizer.Heuristic.all) {
        val (order, gms) = timeMs(Optimizer.greedy(t, h))
        greedy += gms
        ratios(h.name) += comCost(t, order) / opt
      }
      val order = Optimizer.greedy(t, Optimizer.Heuristic.SurvivalProb)
      for (a <- Approach.all) cost += timeMs(CostModel.cost(t, order, a))._2
    }
    Result(exh.result(), bvp.result(), greedy.result(), cost.result(),
      ratios.map { case (k, b) => k -> b.result() })
  }
}
