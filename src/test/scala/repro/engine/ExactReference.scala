package repro.engine

import org.apache.spark.sql.Row
import repro.core.{Approach, SemiJoinModel}
import repro.data.TreeQuery

/** Test oracle for every approach, computed with plain collections over the
  * collected relations, as DESIGN.md §3 defines the counts:
  *
  *  - STD hash probes into `l` are the tuples of the partial join over the
  *    order's prefix before `l`, filtered by BVP's bitvectors.
  *  - COM-family hash probes into `l` are the alive entries of `parent(l)`:
  *    the distinct projections onto the path root → `parent(l)` of the
  *    partial join over the order's prefix.
  *  - Bitvector probes are the inputs of each key-set filter: driver rows,
  *    then stream tuples (BVP+STD) or each alive entry's matches in `l`
  *    (BVP+COM). Semi-join probes are the inputs of SJ's phase-1 filters.
  *  - The output rows are the flat result's, or (factorized) every node's
  *    alive entries once all have joined: the distinct projections of the
  *    full join onto each path root → node.
  *
  * The relations are those the approach sees: raw, or reduced bottom-up by
  * SJ's phase 1. BVP filters by the raw relations' key sets. A tuple holds
  * a row number per joined node, so equal rows are distinct entries.
  */
final class ExactReference(q: TreeQuery) {
  import ExactReference._

  private val t   = q.tree
  private val raw = q.rels.map(_.collect().toIndexedSeq)

  /** The flat result as a bag of `q.outputCols` values. */
  lazy val bag: Map[Seq[Any], Int] =
    (1 until t.n).foldLeft(start(raw(0)))((tuples, l) => extend(raw, tuples, l))
      .map(tup => tup.indices.map(i => raw(i)(tup(i)).getAs[Any](q.keyCol(i))): Seq[Any])
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

    val seen: IndexedSeq[Rel] =
      if (!approach.semiJoins) raw
      else {
        val p1      = SemiJoinModel.phase1Order(t)
        val reduced = raw.toArray
        for (i <- (t.n - 1) to 0 by -1)
          reduced(i) = filter(raw(i), p1(i), reduced(_), semi += _)((r, _) => r).toIndexedSeq
        reduced.toIndexedSeq
      }

    val ht = Map.newBuilder[Int, Long]
    var tuples: Seq[Tuple] = Nil
    if (!approach.usesCom) {
      def parentRow(tup: Tuple, c: Int): Row = seen(t.parent(c))(tup(t.parent(c)))
      tuples = bitvectors(start(seen(0)), 0)(parentRow)
      for (l <- order) {
        ht += l -> tuples.size.toLong
        tuples = bitvectors(extend(seen, tuples, l), l)(parentRow)
      }
    } else {
      // COM's A(i) hold rows of these: with BVP, filtered by the key sets of
      // i's children.
      val entries = seen.indices.map { i =>
        if (!approach.bitvectors) seen(i)
        else filter(seen(i), t.children(i), raw, _ => ())((r, _) => r).toIndexedSeq
      }
      bitvectors(seen(0), 0)((r, _) => r)
      tuples = start(entries(0))
      for (l <- order) {
        val p       = t.parent(l)
        val parents = paths(tuples, p)
        ht += l -> parents.size.toLong
        // Each alive entry's matches in l, before BVP's filters.
        val byKey   = groups(seen(l), l)
        val matches = parents.flatMap(pt => byKey(entries(p)(pt.last).getAs[Any](q.parentCol(l))).map(seen(l)))
        bitvectors(matches, l)((r, _) => r)
        tuples = extend(entries, tuples, l)
      }
    }
    val out =
      if (flatOutput) bag.values.sum.toLong
      else (0 until t.n).map(p => paths(tuples, p).size.toLong).sum
    ProbeLog(ht.result(), bv, semi, out)
  }

  /** The distinct projections of `tuples` onto the path root → `p`. */
  private def paths(tuples: Seq[Tuple], p: Int): Seq[Seq[Int]] = {
    val path = t.pathFromRoot(p)
    tuples.map(tup => path.map(tup)).distinct
  }

  /** The driver's rows as tuples. */
  private def start(driver: Rel): Seq[Tuple] =
    driver.indices.map(r => IndexedSeq.tabulate(t.n)(i => if (i == 0) r else -1))

  /** The row numbers of `rel`, node `l`'s relation, by their join column. */
  private def groups(rel: Rel, l: Int): Any => Seq[Int] = {
    val byKey = rel.indices.groupBy(r => rel(r).getAs[Any](q.childCol(l)))
    k => byKey.getOrElse(k, Nil)
  }

  /** `tuples` over the relations `rels` joined with node `l`'s, on `l`'s
    * join columns.
    */
  private def extend(rels: IndexedSeq[Rel], tuples: Seq[Tuple], l: Int): Seq[Tuple] = {
    val p     = t.parent(l)
    val byKey = groups(rels(l), l)
    tuples.flatMap(tup => byKey(rels(p)(tup(p)).getAs[Any](q.parentCol(l))).map(tup.updated(l, _)))
  }
}

object ExactReference {
  private type Rel   = IndexedSeq[Row]
  /** One row number per joined node, −1 elsewhere. */
  private type Tuple = IndexedSeq[Int]

  private def keys(rows: Rel, col: String): Set[Any] = rows.map(_.getAs[Any](col)).toSet
}
