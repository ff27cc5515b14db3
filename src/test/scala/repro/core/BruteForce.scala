package repro.core

/** Test oracle for the optimizers: the cheapest order under `orderCost`,
  * found by trying every valid permutation.
  */
object BruteForce {
  def apply(tree: JoinTree, orderCost: Seq[Int] => Double): (List[Int], Double) = {
    var bestOrder = List.empty[Int]
    var bestCost  = Double.PositiveInfinity
    def rec(eval: Set[Int], acc: List[Int]): Unit =
      if (eval.size == tree.n) {
        val c = orderCost(acc.reverse)
        if (c < bestCost) { bestCost = c; bestOrder = acc.reverse }
      } else tree.eligible(eval).foreach(l => rec(eval + l, l :: acc))
    rec(Set(0), Nil)
    (bestOrder, bestCost)
  }
}
