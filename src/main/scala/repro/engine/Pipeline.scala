package repro.engine

import java.util.Arrays
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.Approach

/** What the pipeline job needs, shipped to it in one broadcast: the join
  * tree, the order and the approach, and every relation but the driver,
  * collected as columns and indexed by its join key.
  *
  * @param cols    `cols(i)(j)`: column j of relation i ≥ 1, after SJ's
  *                phase 1 (the driver streams: `cols(0)` is empty)
  * @param driverCols the ordinals of the driver's columns in its rows
  * @param outRel  for each output column: the relation that holds it
  * @param outAt   for each output column: its column in the columns of its
  *                relation (for the driver, in `driverCols`)
  * @param linkAt  for i ≥ 1: the column of `parentCol(i)` in the columns of
  *                `parent(i)` (or in `driverCols`)
  * @param index   for i ≥ 1: relation i's rows by `childCol(i)`; also the
  *                key set that bitvectors and semi-joins probe
  * @param drivers the driver's filters, in order: its children's key sets
  *                (BVP's bitvectors, or SJ's phase-1 semi-joins)
  */
private[engine] final class Plan(
    val parent: Array[Int],
    val children: Array[Array[Int]],
    val order: Array[Int],
    val approach: Approach,
    val flatOutput: Boolean,
    val cols: Array[Array[Array[Long]]],
    val driverCols: Array[Int],
    val outRel: Array[Int],
    val outAt: Array[Int],
    val linkAt: Array[Int],
    val index: Array[KeyIndex],
    val drivers: Array[Int],
) extends Serializable {
  def n: Int = parent.length
}

/** One partition's counts, each a sum of what its pipeline did. Steps are
  * positions in the order.
  */
private[engine] final class Counters(steps: Int) extends Serializable {
  val ht   = new Array[Long](steps)
  var bv   = 0L
  var semi = 0L
  var out  = 0L
}

/** Runs a plan over one partition of the driver, in vectors of
  * `VectorSize` rows: the paper's §4 engine. Each vector passes the
  * driver's filters, then either the STD pipeline, which pushes chunks of
  * flat tuples (one row number per joined relation) through the joins, or
  * COM, which keeps one entry list per relation with each entry's parent
  * entry, a count of its surviving children per child relation (the count
  * vector) and whether it survives its evaluated subtree (the selection
  * vector).
  *
  * `emit`, when given, receives every output tuple's output columns; the
  * array is reused.
  */
private[engine] final class Pipeline(plan: Plan, emit: Array[Long] => Unit) {
  import Pipeline.VectorSize
  import plan._

  private val m        = order.length
  private val counters = new Counters(m)
  private val V        = VectorSize

  /** Every relation's columns, the driver's being the current vector's. */
  private val nodeCols = cols.clone()
  private val width    = driverCols.length
  nodeCols(0) = Array.fill(width)(new Array[Long](V))
  /** The driver rows of the vector that pass its filters. */
  private val sel  = new Array[Int](V)
  private val outs = new Array[Long](outRel.length)

  /** Reads the next vector of at most `V` rows from `rows` into the
    * driver's columns, and returns its size.
    */
  private def read(rows: Iterator[InternalRow]): Int = {
    val d    = nodeCols(0)
    var size = 0
    while (size < V && rows.hasNext) {
      val row = rows.next()
      var j = 0
      while (j < width) {
        require(!row.isNullAt(driverCols(j)), "the driver's join and key columns hold no nulls")
        d(j)(size) = row.getLong(driverCols(j))
        j += 1
      }
      size += 1
    }
    size
  }

  /** Runs the plan over `rows`, vector by vector, and returns the counts. */
  def run(rows: Iterator[InternalRow]): Counters = {
    while (rows.hasNext) vector(read(rows))
    counters
  }

  private def vector(size: Int): Unit = {
    // The driver's filters: BVP's bitvectors or SJ's phase-1 semi-joins.
    val d    = nodeCols(0)
    var kept = 0
    var r    = 0
    while (r < size) {
      if (passes(drivers, d, r)) { sel(kept) = r; kept += 1 }
      r += 1
    }
    if (approach.usesCom) com(kept) else std(kept)
  }

  /** Whether row r of `rel` passes the key sets of `filters`, children of
    * its relation, each tried while the ones before pass. Each one tried is
    * a probe: a semi-join probe under SJ, a bitvector probe otherwise.
    */
  private def passes(filters: Array[Int], rel: Array[Array[Long]], r: Int): Boolean = {
    var k = 0
    while (k < filters.length && index(filters(k)).contains(rel(linkAt(filters(k)))(r))) k += 1
    val pass  = k == filters.length
    val tried = if (pass) k else k + 1
    if (approach.semiJoins) counters.semi += tried else counters.bv += tried
    pass
  }

  // ------------------------------------------------------------------ STD

  /** `chunks(k)(j)`: the tuples after k joins, column j the row of the
    * j-th relation joined (the driver first).
    */
  private lazy val chunks = Array.tabulate(m + 1)(k => Array.fill(k + 1)(new Array[Int](V)))
  /** The column of each relation in a chunk. */
  private lazy val posOf = {
    val p = new Array[Int](n)
    for (s <- 0 until m) p(order(s)) = s + 1
    p
  }

  private def std(kept: Int): Unit = {
    System.arraycopy(sel, 0, chunks(0)(0), 0, kept)
    push(0, kept)
  }

  /** Joins the `size` tuples of chunk k with relation `order(k)`, pushing
    * every full chunk of results on, each row of the relation kept only if
    * it passes BVP's filters.
    */
  private def push(k: Int, size: Int): Unit =
    if (k == m) {
      counters.out += size
      if (emit != null) for (t <- 0 until size) {
        for (o <- outRel.indices) outs(o) = nodeCols(outRel(o))(outAt(o))(chunks(m)(posOf(outRel(o)))(t))
        emit(outs)
      }
    } else {
      val l     = order(k)
      val in    = chunks(k)
      val out   = chunks(k + 1)
      val from  = in(posOf(parent(l)))
      val links = nodeCols(parent(l))(linkAt(l))
      val idx   = index(l)
      val bvs   = if (approach.bitvectors) children(l) else null
      counters.ht(k) += size
      var filled = 0
      var t      = 0
      while (t < size) {
        val g = idx.find(links(from(t)))
        if (g >= 0) {
          var j = idx.from(g)
          while (j < idx.until(g)) {
            val r = idx.rows(j)
            if (bvs == null || passes(bvs, nodeCols(l), r)) {
              var c = 0
              while (c <= k) { out(c)(filled) = in(c)(t); c += 1 }
              out(k + 1)(filled) = r
              filled += 1
              if (filled == V) { push(k + 1, filled); filled = 0 }
            }
            j += 1
          }
        }
        t += 1
      }
      if (filled > 0) push(k + 1, filled)
    }

  // ------------------------------------------------------------------ COM

  /** Entries per relation: the row, the parent entry, and whether it
    * survives its evaluated subtree.
    */
  private val cnt   = new Array[Int](n)
  private val erow  = Array.fill(n)(new Array[Int](0))
  private val epar  = Array.fill(n)(new Array[Int](0))
  private val esurv = Array.fill(n)(new Array[Boolean](0))
  /** For i ≥ 1: relation i's entries of parent entry e are
    * `kids(i)(e) until kids(i)(e + 1)`, and `live(i)(e)` of them survive.
    */
  private val kids  = Array.fill(n)(new Array[Int](0))
  private val live  = Array.fill(n)(new Array[Int](0))
  private val alive = Array.fill(n)(new Array[Boolean](0))

  private def ensure(a: Array[Int], size: Int): Array[Int] =
    if (a.length >= size) a else Arrays.copyOf(a, math.max(size, 2 * a.length))
  private def ensure(a: Array[Boolean], size: Int): Array[Boolean] =
    if (a.length >= size) a else Arrays.copyOf(a, math.max(size, 2 * a.length))

  private def append(i: Int, row: Int, par: Int): Unit = {
    val c = cnt(i)
    if (c == erow(i).length) {
      erow(i)  = ensure(erow(i), c + 1)
      epar(i)  = ensure(epar(i), c + 1)
      esurv(i) = ensure(esurv(i), c + 1)
    }
    erow(i)(c) = row; epar(i)(c) = par; esurv(i)(c) = true
    cnt(i) = c + 1
  }

  private def com(kept: Int): Unit = {
    cnt(0) = 0
    for (e <- 0 until kept) append(0, sel(e), -1)
    for (s <- 0 until m) step(s)
    if (flatOutput) {
      for (e <- 0 until cnt(0) if esurv(0)(e)) { cur(0) = e; expand(1) }
    } else {
      // Factorized output: every relation's alive entries, top-down.
      for (i <- 0 until n) {
        alive(i) = ensure(alive(i), cnt(i))
        val a = alive(i)
        for (e <- 0 until cnt(i)) {
          a(e) = esurv(i)(e) && (i == 0 || alive(parent(i))(epar(i)(e)))
          if (a(e)) counters.out += 1
        }
      }
    }
  }

  /** `alive(p)`: whether each entry of p survives and so does its parent
    * entry, recursively up to the driver. Under SJ every entry is alive
    * (phase 1 leaves every row a match in each child, Thm 3.5), and the
    * result is `null`.
    */
  private def aliveAt(p: Int): Array[Boolean] =
    if (approach.semiJoins) null
    else {
      val up = if (p == 0) null else aliveAt(parent(p))
      alive(p) = ensure(alive(p), cnt(p))
      val a    = alive(p)
      val surv = esurv(p)
      val par  = epar(p)
      var e    = 0
      while (e < cnt(p)) { a(e) = surv(e) && (up == null || up(par(e))); e += 1 }
      a
    }

  /** Step s: the alive entries of `p = parent(l)` probe relation l's
    * index, and each match (passing BVP's filters) becomes an entry of l.
    * An alive entry with no entry in l stops surviving, and so, up the
    * tree, does each parent entry left with no surviving child.
    */
  private def step(s: Int): Unit = {
    val l   = order(s)
    val p   = parent(l)
    val a   = aliveAt(p)
    val idx = index(l)
    val bvs = if (approach.bitvectors) children(l) else null
    val links = nodeCols(p)(linkAt(l))
    val rows  = erow(p)
    kids(l) = ensure(kids(l), cnt(p) + 1)
    live(l) = ensure(live(l), cnt(p))
    val from  = kids(l)
    val left  = live(l)
    cnt(l) = 0
    var e = 0
    while (e < cnt(p)) {
      from(e) = cnt(l)
      left(e) = 0
      if (a == null || a(e)) {
        counters.ht(s) += 1
        val g = idx.find(links(rows(e)))
        if (g >= 0) {
          var j = idx.from(g)
          while (j < idx.until(g)) {
            val r = idx.rows(j)
            if (bvs == null || passes(bvs, nodeCols(l), r)) append(l, r, e)
            j += 1
          }
        }
        left(e) = cnt(l) - from(e)
        if (a != null && left(e) == 0) die(p, e)
      }
      e += 1
    }
    from(cnt(p)) = cnt(l)
  }

  /** Entry e of i stops surviving; its parent entry does too if that was
    * its last surviving child in i.
    */
  private def die(i: Int, e: Int): Unit = {
    esurv(i)(e) = false
    if (i > 0) {
      val pe = epar(i)(e)
      live(i)(pe) -= 1
      if (live(i)(pe) == 0 && esurv(parent(i))(pe)) die(parent(i), pe)
    }
  }

  /** The entry of each relation in the output tuple being generated. */
  private val cur = new Array[Int](n)

  /** Generates every output tuple that extends `cur(0 until i)` with a
    * surviving entry of relation i, i + 1, ... (node order, parents first).
    */
  private def expand(i: Int): Unit =
    if (i == n) {
      counters.out += 1
      if (emit != null) {
        for (o <- outRel.indices) outs(o) = nodeCols(outRel(o))(outAt(o))(erow(outRel(o))(cur(outRel(o))))
        emit(outs)
      }
    } else {
      val pe   = cur(parent(i))
      val surv = esurv(i)
      var e    = kids(i)(pe)
      while (e < kids(i)(pe + 1)) {
        if (surv(e)) { cur(i) = e; expand(i + 1) }
        e += 1
      }
    }
}

private[engine] object Pipeline {
  /** Driver rows per vector, and flat tuples per chunk. */
  val VectorSize = 2048

  /** The output tuples of `rows`, each as its output columns, produced one
    * vector at a time.
    */
  def tuples(plan: Plan, rows: Iterator[InternalRow]): Iterator[Array[Long]] = {
    val out  = scala.collection.mutable.ArrayBuffer.empty[Array[Long]]
    val pipe = new Pipeline(plan, ks => out += ks.clone())
    Iterator.continually(rows.hasNext).takeWhile(identity).flatMap { _ =>
      out.clear()
      pipe.vector(pipe.read(rows))
      out.toList
    }
  }
}
