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
  // Step-cost functions: cost of joining `l` next given evaluated `mask`.
  // Both COM and BVP+COM step costs depend only on (mask, l), which is why
  // the principle of optimality holds (Thm 3.3) and Algorithm 1 applies.
  // ------------------------------------------------------------------

  /** COM: c_l × Eq.(1) probes. */
  def stepCostCom(tree: JoinTree): (Int, Int) => Double =
    (mask, l) => tree.probeCost(l) * Survival.probesCom(tree, mask, l)

  /** BVP+COM: hash probes plus the (weighted) bitvector applications of l's
    * children, which fire immediately after l joins.
    */
  def stepCostBvpCom(tree: JoinTree, eps: Double, w: Weights): (Int, Int) => Double =
    (mask, l) => {
      val e  = Some(eps)
      var c  = tree.probeCost(l) * Survival.probesCom(tree, mask, l, e)
      CostModel.bvSweep(tree, l, Survival.entriesAfterJoin(tree, mask | bit(l), l, e), eps)(
        entries => c += w.bv * entries)
      c
    }

  /** STD: c_l × N Π s over the evaluated prefix (mask-determined). */
  def stepCostStd(tree: JoinTree): (Int, Int) => Double =
    (mask, l) => {
      var t = tree.driverSize
      var i = 1
      while (i < tree.n) { if ((mask & bit(i)) != 0) t *= tree.stats(i).s; i += 1 }
      tree.probeCost(l) * t
    }

  // ------------------------------------------------------------------
  // Algorithm 1: exhaustive DP over connected subtrees containing the root.
  // ------------------------------------------------------------------

  /** Optimal order for an additive step-cost function. Enumerates only the
    * *connected* subtrees containing the root (the valid prefixes of
    * Algorithm 1), so the running time is O(#CTs · n) rather than a blind
    * O(2^n · n) scan — much faster for non-star trees, exactly as the paper
    * observes. Returns (order, cost).
    */
  def exhaustive(tree: JoinTree, stepCost: (Int, Int) => Double): (List[Int], Double) = {
    val n = tree.n
    require(n <= 25, s"exhaustive DP limited to 25 relations, got $n")
    val full = (1 << n) - 1

    // Enumerate connected masks containing the root by BFS expansion.
    val seen  = new java.util.HashSet[Integer]()
    val queue = new java.util.ArrayDeque[Integer]()
    seen.add(1); queue.add(1)
    val masksBuf = new scala.collection.mutable.ArrayBuffer[Int]()
    while (!queue.isEmpty) {
      val m = queue.poll().intValue()
      masksBuf += m
      var i = 1
      while (i < n) {
        if ((m & bit(i)) == 0 && (m & bit(tree.parent(i))) != 0) {
          val m2: Integer = m | bit(i)
          if (seen.add(m2)) queue.add(m2)
        }
        i += 1
      }
    }
    val masks = masksBuf.toArray
    java.util.Arrays.sort(masks) // any prefix of a mask is numerically smaller

    val best   = new java.util.HashMap[Integer, java.lang.Double](masks.length * 2)
    val choice = new java.util.HashMap[Integer, Integer](masks.length * 2)
    best.put(1, 0.0)
    for (mask <- masks if mask != 1) {
      var bestCost = Double.PositiveInfinity
      var bestL    = -1
      var l        = 1
      while (l < n) {
        if ((mask & bit(l)) != 0 && !tree.children(l).exists(c => (mask & bit(c)) != 0)) {
          val prefix = mask ^ bit(l)
          val pc     = best.get(prefix: Integer)
          if (pc != null) {
            val c = pc.doubleValue() + stepCost(prefix, l)
            if (c < bestCost) { bestCost = c; bestL = l }
          }
        }
        l += 1
      }
      best.put(mask, bestCost)
      choice.put(mask, bestL)
    }

    var order = List.empty[Int]
    var cur   = full
    while (cur != 1) {
      val l = choice.get(cur: Integer)
      require(l != null && l >= 0, "DP failed to cover the full mask — tree not connected?")
      order = l.intValue() :: order
      cur ^= bit(l.intValue())
    }
    (order, best.get(full: Integer).doubleValue())
  }

  /** Optimal COM order via Algorithm 1. */
  def exhaustiveCom(tree: JoinTree): (List[Int], Double) =
    exhaustive(tree, stepCostCom(tree))

  /** Optimal BVP+COM order via Algorithm 1 (Thm 3.3). Adds the constant
    * driver-level bitvector sweep to the returned cost.
    */
  def exhaustiveBvpCom(tree: JoinTree, eps: Double = CostModel.DefaultEps,
                       w: Weights = Weights()): (List[Int], Double) = {
    val (o, c) = exhaustive(tree, stepCostBvpCom(tree, eps, w))
    var bvInit = 0.0
    CostModel.bvSweep(tree, 0, tree.driverSize, eps)(bvInit += _)
    (o, c + w.bv * bvInit)
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
    var eval  = Set(0)
    while (eval.size < tree.n) {
      val next = pick(tree.eligible(eval), mask)
      order += next
      eval += next
      mask |= bit(next)
    }
    order.result()
  }
}
