package repro.core

/** Survival probabilities and per-step probe estimators (§3.3, §3.5).
  *
  * All estimators are *stateless*: given the set of already-evaluated join
  * operators (always a connected subtree containing the driver, node 0) and
  * the next relation `l`, they return the expected number of probes into
  * `l`'s hash table. This is exactly Eq. (1) of the paper, built on the
  * recursive branch-survival probability `m_T`, with an optional
  * bitvector-pruning variant (ε = false-positive probability).
  *
  * Evaluated sets are bitmasks (bit i = relation i evaluated); the paper's
  * trees have ≤ ~20 relations, so an Int mask suffices
  * (`JoinTree.MaxRelations`).
  */
object Survival {

  @inline def bit(i: Int): Int = 1 << i

  /** `m_T` for the branch rooted at `r` restricted to evaluated nodes
    * (§3.3):
    *
    *   m_T(r) = m_r × (1 − (1 − Π_{c ∈ evalChildren(r)} m_T(c))^{fo_r})
    *
    * With bitvector pruning (`eps = Some(ε)`), every *pending* child — a
    * child of an evaluated node whose own join has not run yet, but whose
    * bitvector has already been applied — contributes a factor (m_c + ε)
    * capped at 1 (§3.5).
    */
  def branchSurvival(tree: JoinTree, evalMask: Int, r: Int,
                     eps: Option[Double] = None): Double = {
    val st = tree.stats(r)
    val x  = offPath(tree, evalMask, r, -1, eps, 1.0)
    if (x >= 1.0) st.m
    else st.m * (1.0 - math.pow(1.0 - x, st.fo))
  }

  /** Survival probability of a *driver* tuple through the whole evaluated
    * tree: the product of the branch survivals of the driver's evaluated
    * children (the driver itself has m = 1).
    */
  def treeSurvival(tree: JoinTree, evalMask: Int, eps: Option[Double] = None): Double =
    offPath(tree, evalMask, 0, -1, eps, 1.0)

  /** `acc` times the factor of each child of `a` but `skip`, in node order:
    * an evaluated child contributes its branch survival m_T; with `eps`, a
    * pending child contributes min(1, m + ε), since its bitvector was
    * applied the moment `a` was joined.
    */
  private def offPath(tree: JoinTree, evalMask: Int, a: Int, skip: Int,
                      eps: Option[Double], acc: Double): Double = {
    var x  = acc
    var cs = tree.children(a)
    while (cs.nonEmpty) {
      val c = cs.head
      if (c != skip) {
        if ((evalMask & bit(c)) != 0) x *= branchSurvival(tree, evalMask, c, eps)
        else eps.foreach(e => x *= math.min(1.0, tree.stats(c).m + e))
      }
      cs = cs.tail
    }
    x
  }

  /** Eq. (1): expected number of probes into relation `l`'s hash table given
    * the evaluated set `evalMask` (which must contain `parent(l)` and not
    * `l`). Expansion happens along the path root → parent(l): every path
    * node contributes m·fo; every evaluated branch hanging off the path
    * contributes only its survival probability m_T.
    *
    * With `eps = Some(ε)` this becomes the COM+BVP estimate (§3.5): pending
    * bitvectors hanging off path nodes — including BV(l) itself — each
    * contribute (m + ε), and branch survivals account for pending
    * bitvectors inside the branch.
    */
  def probesCom(tree: JoinTree, evalMask: Int, l: Int, eps: Option[Double] = None): Double = {
    require((evalMask & bit(l)) == 0, s"relation $l already evaluated")
    require(tree.parent(l) == 0 || (evalMask & bit(tree.parent(l))) != 0,
      s"parent of $l not evaluated — order violates precedence")
    // Eq. (1) from the root down to path node `a`: N, m·fo of each path
    // node but the root, and the factors of every child off the path
    // (`below` is the path child under `a`).
    def along(a: Int, below: Int): Double = {
      val upTo =
        if (a == 0) tree.driverSize
        else { val st = tree.stats(a); along(tree.parent(a), a) * (st.m * st.fo) }
      offPath(tree, evalMask, a, below, eps, upTo)
    }
    // l itself is a pending child of parent(l): BV(l) counts with ε.
    along(tree.parent(l), -1)
  }
}
