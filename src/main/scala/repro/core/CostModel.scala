package repro.core

/** The six execution approaches compared throughout the paper (§4.1). */
sealed trait Approach { def usesCom: Boolean; def name: String }
object Approach {
  case object Std    extends Approach { val usesCom = false; val name = "STD"     }
  case object Com    extends Approach { val usesCom = true;  val name = "COM"     }
  case object BvpStd extends Approach { val usesCom = false; val name = "BVP+STD" }
  case object BvpCom extends Approach { val usesCom = true;  val name = "BVP+COM" }
  case object SjStd  extends Approach { val usesCom = false; val name = "SJ+STD"  }
  case object SjCom  extends Approach { val usesCom = true;  val name = "SJ+COM"  }
  val all: Seq[Approach] = Seq(Std, Com, BvpStd, BvpCom, SjStd, SjCom)
}

/** Relative cost of the different unit operations (§5.4): a bitvector or
  * semi-join probe costs 1/2 of a hash-table probe; generating one output
  * tuple costs 1/14 of a probe. These were micro-benchmarked in the paper;
  * they are configuration here.
  */
final case class Weights(probe: Double = 1.0, bv: Double = 0.5,
                         semi: Double = 0.5, gen: Double = 1.0 / 14.0)

/** A plan cost broken into the unit-operation counts the paper reports. */
final case class PlanCost(htProbes: Double, bvProbes: Double,
                          semiProbes: Double, genTuples: Double) {
  def total(w: Weights): Double =
    w.probe * htProbes + w.bv * bvProbes + w.semi * semiProbes + w.gen * genTuples
  def +(o: PlanCost): PlanCost =
    PlanCost(htProbes + o.htProbes, bvProbes + o.bvProbes,
             semiProbes + o.semiProbes, genTuples + o.genTuples)
}
object PlanCost { val zero: PlanCost = PlanCost(0, 0, 0, 0) }

/** Estimated cost of a left-deep plan (a join order over a rooted join
  * tree) under each of the six approaches (§3.3–§3.6).
  *
  * Conventions:
  *  - `order` is the permutation of relations 1..n-1 (driver excluded),
  *    obeying precedence (parents before children). For SJ approaches the
  *    order applies to phase 2 (phase 1 is optimized internally, §3.6).
  *  - hash-table probe counts are weighted by the per-relation probe cost
  *    c_i; bitvector/semi-join probes and generated tuples are unit-counted
  *    and weighted globally by `Weights`.
  *  - `flatOutput = true` charges result generation: STD variants generate
  *    every intermediate tuple they materialize; COM variants only pay the
  *    final expansion of OUT tuples (§3.6, §5.4). With `flatOutput = false`
  *    COM variants pay no generation at all (factorized output).
  */
object CostModel {
  import Survival.bit

  val DefaultEps = 0.01

  def validateOrder(tree: JoinTree, order: Seq[Int]): Unit = {
    require(order.sorted == (1 until tree.n), s"order must permute 1..${tree.n - 1}")
    var eval = 1 // driver
    for (l <- order) {
      require((eval & bit(tree.parent(l))) != 0,
        s"order $order violates precedence at $l")
      eval |= bit(l)
    }
  }

  /** STD (§2.1): probes into the k-th relation = N × Π_{j<k} s_j; every
    * join's output tuples are materialized (generation cost).
    */
  def std(tree: JoinTree, order: Seq[Int]): PlanCost = {
    validateOrder(tree, order)
    var t      = tree.driverSize
    var probes = 0.0
    var gen    = 0.0
    for (l <- order) {
      probes += tree.probeCost(l) * t
      t *= tree.stats(l).s
      gen += t
    }
    PlanCost(probes, 0, 0, gen)
  }

  /** COM (§3.3): Eq. (1) probes; generation only at the final expansion. */
  def com(tree: JoinTree, order: Seq[Int], flatOutput: Boolean): PlanCost =
    comFamily(tree, order, flatOutput, None)

  /** One bitvector sweep (§3.5): the bitvectors of `of`'s children, applied
    * in ascending node order to `count` rows. Each is charged the rows it
    * sees (`charge`) and passes a fraction min(1, m + ε) of them. Returns
    * the rows left.
    */
  def bvSweep(tree: JoinTree, of: Int, count: Double, eps: Double)(charge: Double => Unit): Double = {
    var t = count
    for (c <- tree.children(of)) { charge(t); t *= math.min(1.0, tree.stats(c).m + eps) }
    t
  }

  /** BVP+STD (§3.5): a stateful sweep over the flat stream. Bitvectors of a
    * relation become available the moment its parent is joined (for
    * children of the driver: before any join) and are applied immediately,
    * in ascending node order. A tuple reaching relation l's hash table has
    * already passed BV(l), so the conditional match probability is
    * m / (m + ε).
    */
  def bvpStd(tree: JoinTree, order: Seq[Int], eps: Double = DefaultEps): PlanCost = {
    validateOrder(tree, order)
    var bvP = 0.0
    var htP = 0.0
    var gen = 0.0
    var t   = bvSweep(tree, 0, tree.driverSize, eps)(bvP += _)
    for (l <- order) {
      htP += tree.probeCost(l) * t
      val st   = tree.stats(l)
      val pass = math.min(1.0, st.m + eps)
      t *= (st.m / pass) * st.fo
      gen += t
      t = bvSweep(tree, l, t, eps)(bvP += _)
    }
    PlanCost(htP, bvP, 0, gen)
  }

  /** BVP+COM (§3.5): Eq. (1) with (m+ε) factors for pending bitvectors;
    * bitvector probes are charged against the entry count at the owning
    * level at application time.
    */
  def bvpCom(tree: JoinTree, order: Seq[Int], flatOutput: Boolean,
             eps: Double = DefaultEps): PlanCost =
    comFamily(tree, order, flatOutput, Some(eps))

  /** The cost of joining `l` next after the evaluated set `evalMask`, under
    * COM (`eps = None`) or BVP+COM (`Some(ε)`): c_l × Eq. (1) hash probes
    * and, with ε, the bitvectors of l's children, which fire right after l
    * joins and filter the entries at l's level. It depends only on
    * (`evalMask`, l), which is why the principle of optimality holds
    * (Thm 3.3) and Algorithm 1 applies.
    */
  def comStep(tree: JoinTree, evalMask: Int, l: Int, eps: Option[Double]): PlanCost = {
    val ht = tree.probeCost(l) * Survival.probesCom(tree, evalMask, l, eps)
    var bv = 0.0
    eps.foreach { e =>
      bvSweep(tree, l, Survival.entriesAfterJoin(tree, evalMask | bit(l), l, eps), e)(bv += _)
    }
    PlanCost(ht, bv, 0, 0)
  }

  /** Bitvector probes of the driver's children, applied to the N driver
    * tuples before any join.
    */
  def driverSweep(tree: JoinTree, eps: Double): Double = {
    var bv = 0.0
    bvSweep(tree, 0, tree.driverSize, eps)(bv += _)
    bv
  }

  /** COM and BVP+COM: the driver sweep when ε is set, then `comStep` per
    * join.
    */
  private def comFamily(tree: JoinTree, order: Seq[Int], flatOutput: Boolean,
                        eps: Option[Double]): PlanCost = {
    validateOrder(tree, order)
    var eval = 1
    var cost = PlanCost(0, eps.fold(0.0)(driverSweep(tree, _)), 0, 0)
    for (l <- order) {
      cost += comStep(tree, eval, l, eps)
      eval |= bit(l)
    }
    cost.copy(genTuples = if (flatOutput) tree.expectedOutput else 0.0)
  }

  /** SJ+STD / SJ+COM (§3.6): phase-1 semi-join probes plus a phase-2 STD or
    * COM run over the reduced tree (all m = 1, adjusted fanouts).
    */
  def sj(tree: JoinTree, phase2Order: Seq[Int], useCom: Boolean,
         flatOutput: Boolean): PlanCost = {
    validateOrder(tree, phase2Order)
    val semi = SemiJoinModel.phase1Probes(tree)
    val rt   = SemiJoinModel.reducedTree(tree)
    val p2   =
      if (useCom) com(rt, phase2Order, flatOutput = false)
      else std(rt, phase2Order)
    // Phase-2 COM expansion must expand the *true* output, not the reduced
    // tree's estimate (they coincide: reduction never changes OUT).
    val gen = if (useCom) { if (flatOutput) tree.expectedOutput else 0.0 } else p2.genTuples
    PlanCost(p2.htProbes, 0, semi, gen)
  }

  /** Dispatch on approach. */
  def cost(tree: JoinTree, order: Seq[Int], approach: Approach,
           flatOutput: Boolean = true, eps: Double = DefaultEps): PlanCost =
    approach match {
      case Approach.Std    => std(tree, order)
      case Approach.Com    => com(tree, order, flatOutput)
      case Approach.BvpStd => bvpStd(tree, order, eps)
      case Approach.BvpCom => bvpCom(tree, order, flatOutput, eps)
      case Approach.SjStd  => sj(tree, order, useCom = false, flatOutput)
      case Approach.SjCom  => sj(tree, order, useCom = true, flatOutput)
    }
}
