package repro.engine

import org.apache.spark.sql.{DataFrame, Observation}
import org.apache.spark.sql.functions._
import repro.core.{Approach, CostModel, SemiJoinModel}
import repro.data.TreeQuery

/** Result of one plan execution: the flat result (when requested) and the
  * measured probe log.
  */
final case class ExecResult(flat: Option[DataFrame], log: ProbeLog)

/** Runs a left-deep pipelined plan under one of the six approaches (§4.1).
  *
  * Every join is a broadcast hash join (`hashJoin`): the stream probes a
  * hash table built on the relation (STD), on `A(l)` (COM's expansion) or
  * on a key set, so each plan is one pipeline over the driver's rows with
  * no shuffle and no sort. Bitvectors (§4.4), COM's survival and selection
  * vectors (§4.2–4.3) and SJ's phase 1 (§4.5) are all one operation,
  * Yannakakis' semi-join reduction: a node's rows are reduced by its
  * children's key sets (`reduce`). Each key-set filter is a plain
  * left-semi join against a broadcast key set, the exact-filter analog of
  * the paper's bitvector (ε = 0); see DESIGN.md §3.
  *
  * A call runs no Spark job that does no necessary work: one per broadcast
  * build side and one per count (`rows`). Checkpoints are lazy, so the
  * first job that reads one fills it, and COM skips a top-down filter that
  * cannot remove an entry.
  */
object Engine {
  /** Runs `approach` over `q` in `order` (for SJ, the phase-2 order).
    *
    * Probes into relation l's hash table = rows entering its join: the flat
    * intermediate for STD, the alive entries at l's parent level for COM.
    * Bitvector and semi-join probes = rows entering each key-set filter. All
    * are counted only when `counting`. `flatOutput = false`
    * returns the factorized result (the alive entries of every node, COM
    * family only).
    */
  def run(q: TreeQuery, order: Seq[Int], approach: Approach,
          counting: Boolean = true, flatOutput: Boolean = true): ExecResult = {
    CostModel.validateOrder(q.tree, order)
    require(flatOutput || approach.usesCom, s"${approach.name} has no factorized output")
    new Execution(q, approach, counting).run(order, flatOutput)
  }

  private final class Execution(q: TreeQuery, approach: Approach, counting: Boolean) {
    val t    = q.tree
    var ht   = Map.empty[Int, Long]
    var bv   = 0L
    var semi = 0L

    /** The pipeline's one join: `stream` probes a hash table built on
      * `build` (Spark's broadcast hash join, build side right), so no join
      * shuffles or sorts either input.
      */
    def hashJoin(stream: DataFrame, build: DataFrame, streamCol: String, buildCol: String,
                 how: String): DataFrame =
      stream.join(broadcast(build), col(streamCol) === col(buildCol), how)

    /** Rows of `df` whose `onCol` occurs in column `keyCol` of `keys`. The
      * key side is projected but not deduplicated, since a left-semi join
      * emits each left row at most once.
      */
    def keep(df: DataFrame, onCol: String, keys: DataFrame, keyCol: String): DataFrame =
      hashJoin(df, keys.select(col(keyCol).as("v")), onCol, "v", "left_semi")

    /** `df` (rows at a node's level) reduced by the key sets `keys(c)` of
      * the children `kids`, in turn; `probe` sees each filter's input.
      */
    def reduce(df: DataFrame, kids: Seq[Int], keys: Int => DataFrame,
               probe: DataFrame => Unit = _ => ()): DataFrame =
      kids.foldLeft(df) { (d, c) => probe(d); keep(d, q.parentCol(c), keys(c), q.childCol(c)) }

    /** With BVP, `df` (rows at node i's level) filtered by the key sets of
      * i's children, applied as soon as i's join attribute exists.
      */
    def bitvectors(i: Int, df: DataFrame): DataFrame =
      if (!approach.bitvectors) df
      else reduce(df, t.children(i), q.rels, d => if (counting) bv += rows(d))

    /** Rows of `df` in one Spark job: an observed `count(1)` over a no-op
      * write. `count()` takes two under adaptive execution, the second to
      * gather the per-partition partial counts.
      */
    def rows(df: DataFrame): Long = {
      val n = Observation()
      df.observe(n, count(lit(1)).as("n")).write.format("noop").mode("overwrite").save()
      n.get("n").asInstanceOf[Long]
    }

    def run(order: Seq[Int], flatOutput: Boolean): ExecResult = {
      val rels        = if (approach.semiJoins) phase1() else q.rels
      val (flat, out) = if (approach.usesCom) com(rels, order, flatOutput) else std(rels, order)
      ExecResult(flat, ProbeLog(ht, bv, semi, out))
    }

    /** SJ phase 1 (§4.5, Yannakakis §3.6): every internal node reduced
      * bottom-up against its (already reduced) children in ascending
      * adjusted-match-probability order; the driver ends fully reduced,
      * leaves untouched.
      */
    def phase1(): IndexedSeq[DataFrame] = {
      val order   = SemiJoinModel.phase1Order(t)
      val reduced = new Array[DataFrame](t.n)
      for (i <- (t.n - 1) to 0 by -1) {
        val kids = order(i)
        val r    = reduce(q.rels(i), kids, reduced(_), d => if (counting) semi += rows(d))
        // Truncate lineage: phase 2 re-derives plans over these reductions.
        reduced(i) = if (kids.isEmpty) r else r.localCheckpoint(eager = false)
      }
      reduced.toIndexedSeq
    }

    /** STD (§4.1): the flat left-deep pipeline, with BVP's bitvectors
      * applied to the stream: the driver's before the first join, the rest
      * right after their parent's join.
      */
    def std(rels: IndexedSeq[DataFrame], order: Seq[Int]): (Option[DataFrame], Long) = {
      var cur = bitvectors(0, rels(0))
      for (l <- order) {
        if (counting) ht += l -> rows(cur)
        cur = bitvectors(l, hashJoin(cur, rels(l), q.parentCol(l), q.childCol(l), "inner"))
      }
      output(cur)
    }

    /** COM (§4.2–4.3): the factorized representation, one DataFrame `A(i)`
      * of matched entries per join-tree node, with survival ("selection
      * vector") semantics recomputed from the match sets. This is the
      * executable mirror of Eq. (1). With BVP, every `A(i)` is filtered at
      * creation by the key sets of i's children.
      */
    def com(rels: IndexedSeq[DataFrame], order: Seq[Int],
            flatOutput: Boolean): (Option[DataFrame], Long) = {
      val A      = new Array[DataFrame](t.n)
      var joined = Vector(0) // the evaluated nodes, in join order
      def eval(i: Int): Boolean = joined.contains(i)

      /** i's entries that survive i's evaluated subtree (bottom-up). */
      def survivors(i: Int): DataFrame =
        reduce(A(i), t.children(i).filter(eval), survivors)

      /** Alive entries at p's level: p's entries whose parent entry is alive
        * (top-down along root → p) and that survive p's evaluated branches
        * other than `onPath`, the child the recursion came from. A(p) was
        * matched against `alive(parent(p), p)` as it stood when p joined,
        * and only nodes outside p's subtree can have shrunk that set since:
        * until one of them joins, the top-down filter removes nothing and
        * is skipped (the paper's incremental selection vector, §4.3).
        */
      def alive(p: Int, onPath: Int): DataFrame = {
        val stale = joined.drop(joined.indexOf(p) + 1).exists(j => !t.pathFromRoot(j).contains(p))
        val top =
          if (!stale) A(p)
          else keep(A(p), q.childCol(p), alive(t.parent(p), p), q.parentCol(p))
        reduce(top, t.children(p).filter(c => eval(c) && c != onPath), survivors)
      }

      // localCheckpoint (not persist): the alive/survival computation
      // re-derives plans over every prior A(i), so logical-plan size — and
      // with it Catalyst analysis time — grows super-linearly with depth
      // unless the plan is cut at each step. Lazy: the first job that
      // reads A(i) computes and caches it, with no job of its own.
      A(0) = bitvectors(0, rels(0)).localCheckpoint(eager = false)
      for (l <- order) {
        val entries = alive(t.parent(l), -1)
        if (counting) ht += l -> rows(entries)
        val matched = keep(rels(l), q.childCol(l), entries, q.parentCol(l))
        joined :+= l
        A(l) = bitvectors(l, matched).localCheckpoint(eager = false)
      }

      if (flatOutput) {
        // Expansion: fold the factorized vectors back into flat tuples.
        output((1 until t.n).foldLeft(A(0)) { (cur, l) =>
          hashJoin(cur, A(l), q.parentCol(l), q.childCol(l), "inner")
        })
      } else {
        // Factorized output: every node's alive entries, counted in one
        // action, so the nodes' plans share their broadcasts.
        (None, rows((0 until t.n).map(alive(_, -1).select()).reduce(_ union _)))
      }
    }

    /** The flat result, `joined` projected on the output columns, and its
      * row count.
      */
    def output(joined: DataFrame): (Option[DataFrame], Long) = {
      val f = joined.select(q.outputCols.map(col): _*)
      (Some(f), rows(f))
    }
  }
}
