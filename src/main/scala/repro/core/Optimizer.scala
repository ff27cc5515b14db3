package repro.core

import scala.util.Random

/** Join-order search for left-deep plans over a rooted join tree (§3.4).
  *
  * The driver is fixed as node 0 throughout (the paper optimizes per driver
  * and takes the outer minimum over drivers; our experiments fix the driver,
  * as the paper's do).
  */
object Optimizer {
  import Survival.bit

  // ------------------------------------------------------------------
  // Algorithm 1: exhaustive DP over connected subtrees containing the root.
  // ------------------------------------------------------------------

  /** Optimal order for an additive step-cost function: `stepCost(mask, l)`
    * is the cost of joining `l` after the evaluated set `mask`. Enumerates
    * only the *connected* subtrees containing the root (the valid prefixes
    * of Algorithm 1), so the running time is O(#CTs · n) rather than a
    * blind O(2^n · n) scan — much faster for non-star trees, exactly as the
    * paper observes. Returns (order, cost).
    *
    * One breadth-first pass: prefixes are dequeued by size, so a prefix's
    * cost is final when it is dequeued, and it relaxes each of its
    * successors then. Among equal costs the lower last-joined relation
    * wins.
    */
  def exhaustive(tree: JoinTree, stepCost: (Int, Int) => Double): (List[Int], Double) = {
    val n = tree.n
    require(n <= 25, s"exhaustive DP limited to 25 relations, got $n")
    val best   = new java.util.HashMap[Integer, java.lang.Double]()
    val choice = new java.util.HashMap[Integer, Integer]()
    val queue  = new java.util.ArrayDeque[Integer]()
    best.put(1, 0.0); queue.add(1)
    while (!queue.isEmpty) {
      val mask = queue.poll().intValue()
      val pc   = best.get(mask: Integer).doubleValue()
      for (l <- tree.eligible(mask)) {
        val next: Integer = mask | bit(l)
        val c    = pc + stepCost(mask, l)
        val prev = best.get(next)
        if (prev == null) queue.add(next)
        if (prev == null || c < prev.doubleValue() ||
            (c == prev.doubleValue() && l < choice.get(next).intValue())) {
          best.put(next, c); choice.put(next, l)
        }
      }
    }

    val full  = (1 << n) - 1
    var order = List.empty[Int]
    var cur   = full
    while (cur != 1) {
      val l = choice.get(cur: Integer).intValue()
      order = l :: order
      cur ^= bit(l)
    }
    (order, best.get(full: Integer).doubleValue())
  }

  /** Optimal COM order via Algorithm 1. */
  def exhaustiveCom(tree: JoinTree): (List[Int], Double) =
    exhaustive(tree, CostModel.comStep(tree, _, _, None).htProbes)

  /** Optimal STD order via Algorithm 1, under the weighted total of
    * `CostModel.stdStep`: hash probes and every intermediate tuple.
    */
  def exhaustiveStd(tree: JoinTree): (List[Int], Double) =
    exhaustive(tree, CostModel.stdStep(tree, _, _).total(Weights()))

  /** Optimal BVP+COM order via Algorithm 1 (Thm 3.3). Adds the constant
    * driver-level bitvector sweep to the returned cost.
    */
  def exhaustiveBvpCom(tree: JoinTree, eps: Double = CostModel.DefaultEps,
                       w: Weights = Weights()): (List[Int], Double) = {
    val (o, c) = exhaustive(tree, CostModel.comStep(tree, _, _, Some(eps)).total(w))
    (o, c + w.bv * CostModel.driverSweep(tree, eps))
  }

  // ------------------------------------------------------------------
  // Greedy heuristics (§3.4).
  // ------------------------------------------------------------------

  sealed trait Heuristic { def name: String }
  object Heuristic {
    /** Rank ordering on s = m×fo — what a classical optimizer does. */
    case object RankOrdering extends Heuristic { val name = "rank" }
    /** Minimize entries appended to the representation by the next join. */
    case object ExpectedTuples extends Heuristic { val name = "exp-tuples" }
    /** Minimize the driver-tuple survival probability of the prefix. */
    case object SurvivalProb extends Heuristic { val name = "survival" }
    val all: Seq[Heuristic] = Seq(RankOrdering, ExpectedTuples, SurvivalProb)
  }

  def greedy(tree: JoinTree, h: Heuristic): List[Int] =
    buildOrder(tree) { (eligible, mask) =>
      eligible.minBy { l =>
        h match {
          case Heuristic.RankOrdering =>
            (tree.stats(l).s - 1.0) / tree.probeCost(l)
          case Heuristic.ExpectedTuples =>
            Survival.probesCom(tree, mask, l) * tree.stats(l).s
          case Heuristic.SurvivalProb =>
            Survival.treeSurvival(tree, mask | bit(l))
        }
      }
    }

  /** A uniformly random valid order (for robustness experiments): one
    * `rng.nextInt` per step.
    */
  def randomOrder(tree: JoinTree, rng: Random): List[Int] =
    buildOrder(tree)((el, _) => el(rng.nextInt(el.length)))

  /** A valid left-deep order built one join at a time: `pick` receives the
    * relations eligible next (`JoinTree.eligible`, in node order, so `minBy`
    * breaks ties towards the lowest node) and the bitmask of evaluated
    * relations, and returns the one to join.
    */
  def buildOrder(tree: JoinTree)(pick: (List[Int], Int) => Int): List[Int] = {
    val order = List.newBuilder[Int]
    var mask  = 1
    for (_ <- 1 until tree.n) {
      val next = pick(tree.eligible(mask), mask)
      order += next
      mask |= bit(next)
    }
    order.result()
  }
}
