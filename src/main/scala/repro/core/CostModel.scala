package repro.core

/** The six execution approaches compared throughout the paper (§4.1): a
  * flat (STD) or factorized (COM) probe pipeline, optionally behind a
  * pre-filter, BVP's bitvectors (§3.5) or SJ's phase-1 full reduction
  * (§3.6).
  */
sealed abstract class Approach(val name: String, val bitvectors: Boolean,
                               val semiJoins: Boolean, val usesCom: Boolean)
object Approach {
  case object Std    extends Approach("STD",     bitvectors = false, semiJoins = false, usesCom = false)
  case object Com    extends Approach("COM",     bitvectors = false, semiJoins = false, usesCom = true)
  case object BvpStd extends Approach("BVP+STD", bitvectors = true,  semiJoins = false, usesCom = false)
  case object BvpCom extends Approach("BVP+COM", bitvectors = true,  semiJoins = false, usesCom = true)
  case object SjStd  extends Approach("SJ+STD",  bitvectors = false, semiJoins = true,  usesCom = false)
  case object SjCom  extends Approach("SJ+COM",  bitvectors = false, semiJoins = true,  usesCom = true)
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
  * tree) under each of the six approaches (§3.3–§3.6): one STD fold and
  * one COM fold, composed with the approach's pre-filter by `cost`.
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

  /** The cost of `order` under `approach` (§3.3–§3.6), composed from its
    * pre-filter and its probe pipeline. SJ runs phase 2 on the reduced tree
    * (all m = 1, adjusted fanouts) and adds the phase-1 semi-join probes;
    * BVP sets ε for the fold's bitvector sweeps; then the STD or COM fold
    * charges the probes. COM's flat output expands the original tree's OUT
    * tuples (reduction never changes OUT).
    */
  def cost(tree: JoinTree, order: Seq[Int], approach: Approach,
           flatOutput: Boolean = true, eps: Double = DefaultEps): PlanCost = {
    validateOrder(tree, order)
    val probed = if (approach.semiJoins) SemiJoinModel.reducedTree(tree) else tree
    val e      = if (approach.bitvectors) Some(eps) else None
    val pipe   =
      if (approach.usesCom)
        comFamily(probed, order, e).copy(genTuples = if (flatOutput) tree.expectedOutput else 0.0)
      else stdFamily(probed, order, e)
    if (approach.semiJoins) pipe.copy(semiProbes = SemiJoinModel.phase1Probes(tree)) else pipe
  }

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

  /** STD (§2.1, `eps = None`) and BVP+STD (§3.5, `Some(ε)`) over the flat
    * stream: probes into the k-th relation = N × Π_{j<k} s_j, and every
    * join's output tuples are materialized (generation cost). With ε, a
    * stateful bitvector sweep: the bitvectors of a relation become
    * available the moment its parent is joined (for children of the
    * driver: before any join) and are applied immediately, in ascending
    * node order. A tuple reaching relation l's hash table has already
    * passed BV(l), so its conditional match probability is m / (m + ε).
    */
  private def stdFamily(tree: JoinTree, order: Seq[Int], eps: Option[Double]): PlanCost = {
    var bv  = 0.0
    var ht  = 0.0
    var gen = 0.0
    var t   = eps.fold(tree.driverSize)(e => bvSweep(tree, 0, tree.driverSize, e)(bv += _))
    for (l <- order) {
      ht += tree.probeCost(l) * t
      val st = tree.stats(l)
      t *= eps.fold(st.s)(e => (st.m / math.min(1.0, st.m + e)) * st.fo)
      gen += t
      eps.foreach(e => t = bvSweep(tree, l, t, e)(bv += _))
    }
    PlanCost(ht, bv, 0, gen)
  }

  /** The cost of joining `l` next after the evaluated set `evalMask`, under
    * STD: c_l × N Π_{j ∈ evalMask} s_j hash probes, and the tuples of the
    * join's output, N Π s over the evaluated set and l. It depends only on
    * (`evalMask`, l), so Algorithm 1 applies (`Optimizer.exhaustiveStd`),
    * and it adds up along an order to `cost(tree, order, Std)`.
    */
  def stdStep(tree: JoinTree, evalMask: Int, l: Int): PlanCost = {
    var t = tree.driverSize
    for (i <- 1 until tree.n if (evalMask & bit(i)) != 0) t *= tree.stats(i).s
    PlanCost(tree.probeCost(l) * t, 0, 0, t * tree.stats(l).s)
  }

  /** The cost of joining `l` next after the evaluated set `evalMask`, under
    * COM (`eps = None`) or BVP+COM (`Some(ε)`): c_l × Eq. (1) hash probes
    * and, with ε, the bitvectors of l's children, which fire right after l
    * joins and filter the entries at l's level. Those entries are the
    * probes times l's fanout and conditional match probability m / (m + ε):
    * Eq. (1) already charged (m + ε) for BV(l), and the join resolves its
    * false positives. The cost depends only on (`evalMask`, l), which is
    * why the principle of optimality holds (Thm 3.3) and Algorithm 1
    * applies.
    */
  def comStep(tree: JoinTree, evalMask: Int, l: Int, eps: Option[Double]): PlanCost = {
    val p  = Survival.probesCom(tree, evalMask, l, eps)
    var bv = 0.0
    eps.foreach { e =>
      val st = tree.stats(l)
      bvSweep(tree, l, p * (st.m / math.min(1.0, st.m + e)) * st.fo, e)(bv += _)
    }
    PlanCost(tree.probeCost(l) * p, bv, 0, 0)
  }

  /** Bitvector probes of the driver's children, applied to the N driver
    * tuples before any join.
    */
  def driverSweep(tree: JoinTree, eps: Double): Double = {
    var bv = 0.0
    bvSweep(tree, 0, tree.driverSize, eps)(bv += _)
    bv
  }

  /** COM (§3.3, `eps = None`) and BVP+COM (§3.5, `Some(ε)`): the driver
    * sweep when ε is set, then `comStep` per join. Bitvector probes are
    * charged against the entry count at the owning level at application
    * time. No generation: `cost` adds the final expansion.
    */
  private def comFamily(tree: JoinTree, order: Seq[Int], eps: Option[Double]): PlanCost = {
    var eval = 1
    var cost = PlanCost(0, eps.fold(0.0)(driverSweep(tree, _)), 0, 0)
    for (l <- order) {
      cost += comStep(tree, eval, l, eps)
      eval |= bit(l)
    }
    cost
  }
}
