package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import scala.collection.mutable
import repro.data.TreeQuery

/** Bag checksum of a join result: the row count plus the wrapping sum of a
  * row hash. Row order does not matter, but every duplicate row does.
  *
  * The row hash is a product of per-column hashes, each forced odd so no
  * factor can zero out the product modulo 2^64. Because the hash is a
  * product over the relations of the row, the sum over a join result
  * factorizes over the join tree, and [[Reference]] can compute it exactly
  * from the base relations without materializing the result.
  */
final case class Checksum(rows: Long, hashSum: Long) {
  def +(o: Checksum): Checksum = Checksum(rows + o.rows, hashSum + o.hashSum)
}

object Checksum {
  val zero: Checksum = Checksum(0L, 0L)

  /** Hash of value `v` in output column `colIdx` (splitmix64 finalizer). */
  def mix(colIdx: Int, v: Long): Long = {
    var z = v + (colIdx + 1) * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    (z ^ (z >>> 31)) | 1L
  }

  def rowHash(row: Array[Long]): Long = {
    var h = 1L
    var i = 0
    while (i < row.length) { h *= mix(i, row(i)); i += 1 }
    h
  }

  def ofRows(rows: Iterator[Array[Long]]): Checksum =
    rows.foldLeft(zero)((acc, r) => Checksum(acc.rows + 1, acc.hashSum + rowHash(r)))

  /** Checksum of `df` projected on `cols` (all of type bigint), summed per
    * partition on the executors.
    */
  def ofFrame(df: DataFrame, cols: Seq[String]): Checksum = {
    val n = cols.length
    df.select(cols.map(col): _*).rdd
      .mapPartitions { it =>
        Iterator.single(ofRows(it.map(r => Array.tabulate(n)(r.getLong))))
      }
      .collect()
      .foldLeft(zero)(_ + _)
  }
}

/** What an execution of a query must return.
  *
  * @param flat         bag checksum of the flat result
  * @param aliveEntries rows of every relation that take part in at least one
  *                     result row: the size of COM's factorized output
  */
final case class Expected(flat: Checksum, aliveEntries: Long)

/** Exact reference for a tree query, computed on the driver from the
  * collected base relations. It uses no Spark executor code path of the
  * system under test.
  */
object Reference {

  /** One collected relation: its key column and, per join column it takes
    * part in, that column's values (row-aligned).
    */
  final case class Rel(key: Array[Long], joinCols: Map[String, Array[Long]])

  def collect(q: TreeQuery): IndexedSeq[Rel] = q.rels.indices.map { i =>
    val joinCols = ((if (i == 0) Nil else List(q.childCol(i))) ++
      q.tree.children(i).map(q.parentCol)).distinct
    val cols  = q.keyCol(i) +: joinCols
    val rows  = q.rels(i).select(cols.map(col): _*).collect()
    val arr   = cols.indices.map(j => rows.map(_.getAs[Number](j).longValue()))
    Rel(arr.head, joinCols.zip(arr.tail).toMap)
  }

  def expected(q: TreeQuery): Expected = expected(q, collect(q))

  def expected(q: TreeQuery, rels: IndexedSeq[Rel]): Expected = {
    val t = q.tree
    // Bottom-up: for every node c, (join value -> (count, hash sum)) of
    // c's subtree results, keyed by c's child-side join column.
    val cnt = new Array[mutable.LongMap[Long]](t.n)
    val sum = new Array[mutable.LongMap[Long]](t.n)
    // Bottom-up survival: join values of c's rows with a full subtree match.
    val ok  = new Array[Array[Boolean]](t.n)
    var rootCk = Checksum.zero
    for (i <- (t.n - 1) to 0 by -1) {
      val r    = rels(i)
      val rows = r.key.length
      val okI  = new Array[Boolean](rows)
      val kids = t.children(i).map(c => (c, r.joinCols(q.parentCol(c))))
      val cI   = mutable.LongMap.empty[Long]
      val sI   = mutable.LongMap.empty[Long]
      var row  = 0
      while (row < rows) {
        var c = 1L
        var h = Checksum.mix(i, r.key(row))
        for ((k, vals) <- kids) {
          c *= cnt(k).getOrElse(vals(row), 0L)
          h *= sum(k).getOrElse(vals(row), 0L)
        }
        okI(row) = c != 0L
        if (i == 0) rootCk = rootCk + Checksum(c, h)
        else {
          val v = r.joinCols(q.childCol(i))(row)
          cI.update(v, cI.getOrElse(v, 0L) + c)
          sI.update(v, sI.getOrElse(v, 0L) + h)
        }
        row += 1
      }
      cnt(i) = cI; sum(i) = sI; ok(i) = okI
    }
    // Top-down: a row is alive when it survives its subtree and matches an
    // alive row of its parent.
    val alive = new Array[Array[Boolean]](t.n)
    alive(0) = ok(0)
    for (i <- 1 until t.n) {
      val p      = t.parent(i)
      val pVals  = rels(p).joinCols(q.parentCol(i))
      val keys   = mutable.LongMap.empty[Unit]
      for (row <- pVals.indices if alive(p)(row)) keys.update(pVals(row), ())
      val own    = rels(i).joinCols(q.childCol(i))
      alive(i)   = Array.tabulate(own.length)(row => ok(i)(row) && keys.contains(own(row)))
    }
    Expected(rootCk, alive.map(_.count(identity).toLong).sum)
  }
}
