package repro.core

/** Cost model for two-phase semi-join full reduction (§3.6, Yannakakis).
  *
  * Phase 1 reduces relations bottom-up: every internal node is semi-joined
  * with its (already reduced) children, leaves stay untouched, and the root
  * (driver) ends up fully reduced. Phase 2 runs a left-deep plan from the
  * reduced driver; by construction all match probabilities in phase 2 are 1
  * and only (adjusted) fanouts matter.
  */
object SemiJoinModel {

  /** Theorem 3.4: probing from p into a child reduced independently by
    * `ratio`, the adjusted match probability is
    * m′ = m × (1 − (1 − ratio)^fo).
    */
  def adjustedM(m: Double, fo: Double, ratio: Double): Double =
    if (ratio >= 1.0) m else m * (1.0 - math.pow(1.0 - ratio, fo))

  /** Theorem 3.4: adjusted fanout fo′ = fo × ratio / (1 − (1 − ratio)^fo).
    * Note m′ × fo′ = ratio × m × fo, matching classical selectivity scaling.
    * Never below 1: with fo near 1 and a tiny ratio, rounding alone can
    * give a value just under it.
    */
  def adjustedFo(fo: Double, ratio: Double): Double =
    if (ratio >= 1.0) fo
    else {
      val denom = 1.0 - math.pow(1.0 - ratio, fo)
      if (denom <= 0.0) 1.0 else math.max(1.0, fo * ratio / denom)
    }

  /** Per-node reduction ratio after phase 1: red(i) = Π_{c ∈ children(i)}
    * m′_{i→c}, where each child was itself already reduced by red(c).
    * Leaves have red = 1; red(0) is the driver's surviving fraction.
    */
  def reductionRatios(tree: JoinTree): Array[Double] = {
    val red = Array.fill(tree.n)(1.0)
    // children have larger indices than parents, so a reverse sweep is a
    // valid bottom-up order.
    var i = tree.n - 1
    while (i >= 0) {
      var r  = 1.0
      var cs = tree.children(i)
      while (cs.nonEmpty) {
        r *= reducedM(tree, red, cs.head)
        cs = cs.tail
      }
      red(i) = r
      i -= 1
    }
    red
  }

  /** m′ of the edge into child `c` once `c` is reduced by red(c). */
  private def reducedM(tree: JoinTree, red: Array[Double], c: Int): Double = {
    val st = tree.stats(c)
    adjustedM(st.m, st.fo, red(c))
  }

  /** Phase 1's semi-join order (§3.6): for each node, its children in
    * ascending adjusted match probability m′ (the optimal order), ties in
    * node order. The executor and `phase1Probes` both follow it.
    */
  def phase1Order(tree: JoinTree): Array[List[Int]] = {
    val red = reductionRatios(tree)
    tree.children.map(_.sortBy(reducedM(tree, red, _)))
  }

  /** Expected number of semi-join probes in phase 1. For each internal node
    * p, its |R_p| tuples are checked against the reduced children in
    * `phase1Order`: probes = |R_p| × (1 + m′₁ + m′₁m′₂ + ...).
    */
  def phase1Probes(tree: JoinTree): Double = {
    val red   = reductionRatios(tree)
    val order = phase1Order(tree)
    var total = 0.0
    for (p <- 0 until tree.n) {
      var surviving = tree.size(p)
      for (c <- order(p)) { total += surviving; surviving *= reducedM(tree, red, c) }
    }
    total
  }

  /** The phase-2 tree: same shape, driver reduced to N × red(0), every edge
    * with m = 1 and the adjusted fanout fo″ (computed from the child's own
    * reduction ratio). Probe costs carry over.
    */
  def reducedTree(tree: JoinTree): JoinTree = {
    val red = reductionRatios(tree)
    val st  = tree.stats.zipWithIndex.map { case (e, i) =>
      if (i == 0) e else EdgeStats(1.0, adjustedFo(e.fo, red(i)))
    }
    new JoinTree(tree.parent.clone(), st, tree.probeCost.clone(),
                 tree.driverSize * red(0))
  }

  /** Optimal phase-2 join order for SJ+STD: rank ordering on the reduced
    * tree, where every match probability is 1, so the rank degenerates to
    * ascending adjusted fanout, subject to precedence. Optimal for the
    * ASI-obeying phase-2 cost function.
    */
  def phase2OrderStd(tree: JoinTree): List[Int] =
    Optimizer.greedy(reducedTree(tree), Optimizer.Heuristic.RankOrdering)
}
