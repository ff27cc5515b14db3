package repro.engine

import org.apache.spark.sql.Row
import repro.core.Approach
import repro.data.TreeQuery

/** Test oracle for the COM family's hash probes, over the collected
  * relations: for each step `l` of an order, the number of alive entries
  * at `parent(l)`, the rows of that node that take part in the join of the
  * evaluated subtree (Yannakakis' full reduction of it). The relations are
  * those the approach sees: raw for COM, reduced bottom-up by SJ's phase 1
  * for SJ+COM, and filtered by their children's key sets for BVP+COM.
  */
object AliveReference {
  def htProbes(q: TreeQuery, order: Seq[Int], approach: Approach): Map[Int, Long] = {
    require(approach.usesCom, s"${approach.name} has no alive entries")
    val t   = q.tree
    val raw = q.rels.map(_.collect().toSeq)

    /** `rows` whose `onCol` occurs in column `keyCol` of `keys`. */
    def keep(rows: Seq[Row], onCol: String, keys: Seq[Row], keyCol: String): Seq[Row] = {
      val ks = keys.map(_.getAs[Any](keyCol)).toSet
      rows.filter(r => ks(r.getAs[Any](onCol)))
    }
    def reduce(rows: Seq[Row], kids: Seq[Int], rel: Int => Seq[Row]): Seq[Row] =
      kids.foldLeft(rows)((d, c) => keep(d, q.parentCol(c), rel(c), q.childCol(c)))

    // Phase 1's reduction does not depend on the order of a node's children.
    val seen = raw.toArray
    if (approach.semiJoins) for (i <- (t.n - 1) to 0 by -1) seen(i) = reduce(raw(i), t.children(i), seen)
    if (approach.bitvectors) for (i <- 0 until t.n) seen(i) = reduce(seen(i), t.children(i), raw)

    /** Alive entries at `p` once the nodes `eval` have joined: bottom-up
      * reduction of the evaluated subtree, then top-down along root → p.
      */
    def alive(eval: Set[Int], p: Int): Long = {
      val up = new Array[Seq[Row]](t.n)
      for (i <- (t.n - 1) to 0 by -1 if eval(i)) up(i) = reduce(seen(i), t.children(i).filter(eval), up)
      t.pathFromRoot(p).tail.foldLeft(up(0)) { (down, c) =>
        keep(up(c), q.childCol(c), down, q.parentCol(c))
      }.size.toLong
    }

    order.indices.map(s => order(s) -> alive(order.take(s).toSet + 0, t.parent(order(s)))).toMap
  }
}
