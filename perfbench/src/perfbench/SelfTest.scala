package perfbench

import repro.core.JoinTree
import repro.data.TreeQuery

/** Self-tests of the benchmark's own logic: the bag checksum, the exact
  * reference, and span self time. Needs no Spark session. Run through
  * `python3 perfbench/selftest.py`.
  */
object SelfTest {

  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch { case e: Throwable => failures += 1; println(s"FAIL $name: $e") }

  private def assertEq[A](got: A, want: A): Unit =
    if (got != want) throw new AssertionError(s"got $got, want $want")

  // A five-relation tree: 0 <- 1 <- 2, 0 <- 3, 3 <- 4. Relations are lists
  // of (key, join value to parent); duplicate rows and duplicate join
  // values are deliberate, and node 4 matches nothing under key 31.
  private val tree = JoinTree(Seq((0, 1.0, 1.0), (1, 1.0, 1.0), (0, 1.0, 1.0), (3, 1.0, 1.0)))
  private val rels: IndexedSeq[Seq[(Long, Long)]] = IndexedSeq(
    Seq(1L -> 0L, 2L -> 0L, 2L -> 0L, 3L -> 0L),
    Seq(11L -> 1L, 12L -> 1L, 13L -> 2L, 14L -> 3L, 14L -> 3L),
    Seq(21L -> 11L, 22L -> 11L, 23L -> 13L, 24L -> 14L),
    Seq(31L -> 1L, 32L -> 2L, 33L -> 3L, 34L -> 3L),
    Seq(41L -> 32L, 42L -> 33L, 43L -> 34L, 44L -> 34L),
  )
  // Column names follow TreeData: key k<i>, join column fk<i> -> k<parent>.
  private val query = TreeQuery(tree, IndexedSeq.fill(tree.n)(null),
    parentCol = (0 until tree.n).map(i => if (i == 0) "" else s"k${tree.parent(i)}"),
    childCol  = (0 until tree.n).map(i => if (i == 0) "" else s"fk$i"),
    keyCol    = (0 until tree.n).map(i => s"k$i"))

  private def collected: IndexedSeq[Reference.Rel] = rels.indices.map { i =>
    val keys = rels(i).map(_._1).toArray
    val cols = tree.children(i).map(c => query.parentCol(c) -> keys).toMap ++
      (if (i == 0) Map.empty else Map(query.childCol(i) -> rels(i).map(_._2).toArray))
    Reference.Rel(keys, cols)
  }

  /** Every result row by nested loops: one row per combination of
    * relation rows that satisfies all join conditions.
    */
  private def bruteForce: Seq[Array[Long]] = {
    def extend(partial: Vector[(Long, Long)]): Seq[Vector[(Long, Long)]] =
      if (partial.length == tree.n) Seq(partial)
      else {
        val i = partial.length
        rels(i).filter(r => i == 0 || r._2 == partial(tree.parent(i))._1)
          .flatMap(r => extend(partial :+ r))
      }
    extend(Vector.empty).map(_.map(_._1).toArray)
  }

  def main(args: Array[String]): Unit = {
    test("checksum is order independent") {
      val rows = bruteForce
      assertEq(Checksum.ofRows(rows.reverseIterator), Checksum.ofRows(rows.iterator))
    }

    test("checksum rejects a result with one duplicate row removed") {
      val rows = bruteForce
      val dup  = rows.groupBy(_.toSeq).collectFirst { case (_, rs) if rs.size > 1 => rs.head }.get
      val less = rows.diff(Seq(dup)) // removes exactly one copy
      assertEq(less.length, rows.length - 1)
      assertEq(Checksum.ofRows(less.iterator) == Checksum.ofRows(rows.iterator), false)
      // The rows still cover the same set: a set comparison would pass.
      assertEq(less.map(_.toSeq).toSet, rows.map(_.toSeq).toSet)
    }

    test("reference checksum equals the brute-force result") {
      val exp = Reference.expected(query, collected)
      assertEq(exp.flat, Checksum.ofRows(bruteForce.iterator))
      assert(exp.flat.rows > 0)
    }

    test("reference counts rows that take part in a result") {
      // Per relation, the rows whose key occurs in some result row.
      val rows  = bruteForce
      val alive = rels.indices.map(i => rels(i).count(r => rows.exists(_(i) == r._1))).sum
      assertEq(Reference.expected(query, collected).aliveEntries, alive.toLong)
    }

    test("self time on a hand-built span set") {
      // Call [0, 100] with jobs [10, 30] and [20, 50] (overlapping) and
      // [90, 120] (running past the call); the jobs cover [10, 50] and
      // [90, 100], 50 ms, so self time is 50 ms. The stage under the first
      // job and the span under another parent do not count.
      val spans = Seq(
        Span(1, 0, "call", 0, 100),
        Span(2, 1, "job 1", 10, 30),
        Span(3, 1, "job 2", 20, 50),
        Span(4, 1, "job 3", 90, 120),
        Span(5, 2, "stage 1", 0, 100),
        Span(6, 9, "other", 0, 100),
      )
      assertEq(Span.selfTime(spans.head, spans), 50.0)
      assertEq(Span.covered(Seq((10.0, 30.0), (20.0, 50.0)), 0, 100), 40.0)
    }

    if (failures > 0) { println(s"$failures self-test(s) failed"); sys.exit(1) }
  }
}
