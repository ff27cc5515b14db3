package repro.engine

import org.apache.spark.sql.Row
import repro.core.{Approach, SemiJoinModel}
import repro.data.TreeQuery

/** Test oracle for every approach, computed with plain collections over the
  * collected relations, as DESIGN.md §3 defines the counts:
  *
  *  - STD hash probes into `l` are the tuples of the partial join over the
  *    order's prefix before `l`, filtered by BVP's bitvectors.
  *  - COM-family hash probes into `l` are the alive entries at `parent(l)`:
  *    the rows of that node that take part in the join of the evaluated
  *    subtree (Yannakakis' full reduction of it).
  *  - Bitvector probes are the inputs of each key-set filter: driver rows,
  *    then stream tuples (BVP+STD) or distinct rows of `A(l)` (BVP+COM).
  *    Semi-join probes are the inputs of SJ's phase-1 filters.
  *  - The output rows are the flat result's, or (factorized) every node's
  *    alive entries once all have joined.
  *
  * The relations are those the approach sees: raw, or reduced bottom-up by
  * SJ's phase 1. BVP filters by the raw relations' key sets.
  */
final class ExactReference(q: TreeQuery) {
  import ExactReference._

  private val t   = q.tree
  private val raw = q.rels.map(_.collect().toIndexedSeq)

  /** The flat result as a bag of `q.outputCols` values. */
  lazy val bag: Map[Seq[Any], Int] =
    (1 until t.n).foldLeft(start(raw(0)))((tuples, l) => extend(tuples, raw(l), l))
      .map(tup => tup.indices.map(i => tup(i).getAs[Any](q.keyCol(i))): Seq[Any])
      .groupMapReduce(identity)(_ => 1)(_ + _)

  /** The exact `ProbeLog` of `Engine.run(q, order, approach, counting =
    * true, flatOutput)`.
    */
  def log(order: Seq[Int], approach: Approach, flatOutput: Boolean = true): ProbeLog = {
    var bv   = 0L
    var semi = 0L

    /** `xs` reduced by the key sets of `rel(c)`, for each of `kids` in turn;
      * `row(x, c)` is the row of `x` that holds `parentCol(c)`, and `charge`
      * sees each filter's input size.
      */
    def filter[A](xs: Seq[A], kids: Seq[Int], rel: Int => Rel, charge: Long => Unit)
                 (row: (A, Int) => Row): Seq[A] =
      kids.foldLeft(xs) { (d, c) =>
        charge(d.size.toLong)
        val ks = keys(rel(c), q.childCol(c))
        d.filter(x => ks(row(x, c).getAs[Any](q.parentCol(c))))
      }
    def bitvectors[A](xs: Seq[A], i: Int)(row: (A, Int) => Row): Seq[A] =
      if (approach.bitvectors) filter(xs, t.children(i), raw, bv += _)(row) else xs

    val seen = raw.toArray
    if (approach.semiJoins) {
      val p1 = SemiJoinModel.phase1Order(t)
      for (i <- (t.n - 1) to 0 by -1)
        seen(i) = filter(raw(i), p1(i), seen(_), semi += _)((r, _) => r).toIndexedSeq
    }
    // COM's A(i) hold rows of these: with BVP, filtered by the key sets of
    // i's children.
    val entries = seen.indices.map { i =>
      if (!approach.bitvectors) seen(i)
      else filter(seen(i), t.children(i), raw, _ => ())((r, _) => r).toIndexedSeq
    }

    val ht = Map.newBuilder[Int, Long]
    if (!approach.usesCom) {
      var tuples = bitvectors(start(seen(0)), 0)((tup, c) => tup(t.parent(c)))
      for (l <- order) {
        ht += l -> tuples.size.toLong
        tuples = bitvectors(extend(tuples, seen(l), l), l)((tup, c) => tup(t.parent(c)))
      }
    } else {
      bitvectors(seen(0), 0)((r, _) => r)
      for ((l, s) <- order.zipWithIndex) {
        val parents = alive(entries, order.take(s).toSet + 0, t.parent(l))
        ht += l -> parents.size.toLong
        val ks = keys(parents, q.parentCol(l))
        bitvectors(seen(l).filter(r => ks(r.getAs[Any](q.childCol(l)))), l)((r, _) => r)
      }
    }
    val out =
      if (flatOutput) bag.values.sum.toLong
      else (0 until t.n).map(p => alive(entries, (0 until t.n).toSet, p).size.toLong).sum
    ProbeLog(ht.result(), bv, semi, out)
  }

  /** The driver's rows as tuples. */
  private def start(driver: Rel): Seq[Tuple] =
    driver.map(r => IndexedSeq.tabulate[Row](t.n)(i => if (i == 0) r else null))

  /** `tuples` joined with `rel`, node `l`'s relation, on `l`'s join columns. */
  private def extend(tuples: Seq[Tuple], rel: Rel, l: Int): Seq[Tuple] = {
    val byKey = rel.groupBy(_.getAs[Any](q.childCol(l)))
    tuples.flatMap { tup =>
      byKey.getOrElse(tup(t.parent(l)).getAs[Any](q.parentCol(l)), Nil).map(tup.updated(l, _))
    }
  }

  /** Alive entries at `p` once the nodes `eval` have joined, over the rows
    * `a`: bottom-up reduction of the evaluated subtree, then top-down along
    * root → p.
    */
  private def alive(a: IndexedSeq[Rel], eval: Set[Int], p: Int): Rel = {
    def keep(rows: Rel, onCol: String, by: Rel, byCol: String): Rel = {
      val ks = keys(by, byCol)
      rows.filter(r => ks(r.getAs[Any](onCol)))
    }
    val up = new Array[Rel](t.n)
    for (i <- (t.n - 1) to 0 by -1 if eval(i))
      up(i) = t.children(i).filter(eval).foldLeft(a(i))((d, c) => keep(d, q.parentCol(c), up(c), q.childCol(c)))
    t.pathFromRoot(p).tail.foldLeft(up(0))((down, c) => keep(up(c), q.childCol(c), down, q.parentCol(c)))
  }
}

object ExactReference {
  private type Rel   = IndexedSeq[Row]
  /** One row per joined node, `null` elsewhere. */
  private type Tuple = IndexedSeq[Row]

  private def keys(rows: Rel, col: String): Set[Any] = rows.map(_.getAs[Any](col)).toSet
}
