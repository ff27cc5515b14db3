package repro.core

/** Test oracle for the optimizers: the cheapest order under `orderCost`,
  * found by trying every valid permutation.
  */
object BruteForce {
  def apply(tree: JoinTree, orderCost: Seq[Int] => Double): (List[Int], Double) = {
    var bestOrder = List.empty[Int]
    var bestCost  = Double.PositiveInfinity
    def rec(evalMask: Int, acc: List[Int]): Unit =
      if (acc.length == tree.n - 1) {
        val c = orderCost(acc.reverse)
        if (c < bestCost) { bestCost = c; bestOrder = acc.reverse }
      } else tree.eligible(evalMask).foreach(l => rec(evalMask | (1 << l), l :: acc))
    rec(1, Nil)
    (bestOrder, bestCost)
  }
}
