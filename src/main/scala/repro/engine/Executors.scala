package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CostModel, SemiJoinModel}
import repro.data.TreeQuery

/** Result of one plan execution: the flat result (when requested) and the
  * measured probe log.
  */
final case class ExecResult(flat: Option[DataFrame], log: ProbeLog)

/** Shared helpers for the executors. */
private[engine] object ExecUtil {

  /** Rows of `df` whose `onCol` occurs in column `keyCol` of `keys`: a
    * plain left-semi join, the exact-filter analog of the paper's bitvector
    * (ε = 0); see DESIGN.md §3. The key side is projected but not
    * deduplicated, since a left-semi join emits each left row at most once.
    */
  def keep(df: DataFrame, onCol: String, keys: DataFrame, keyCol: String): DataFrame = {
    val v = keys.select(col(keyCol).as("v"))
    df.join(v, col(onCol) === v.col("v"), "left_semi")
  }

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }
}

/** STD execution (§4.1): the flat left-deep pipeline. Optionally with
  * bitvector-based early pruning (§4.4): the key set of every relation is
  * applied to the stream the moment its join attribute becomes available —
  * driver-attribute bitvectors before the first join, the rest immediately
  * after the parent's join.
  *
  * Probes into relation l's hash table = rows of the intermediate entering
  * the join (measured with count() when `counting`); bitvector probes =
  * rows entering each key-set filter.
  */
object StdExecutor {

  def run(q: TreeQuery, order: Seq[Int], counting: Boolean = true,
          bvp: Boolean = false): ExecResult = {
    CostModel.validateOrder(q.tree, order)
    var ht   = Map.empty[Int, Long]
    var bv   = 0L
    val (flatAndOut, ms) = ExecUtil.timed {
      var cur = q.rels(0)
      def applyBvs(of: Int): Unit =
        for (c <- q.tree.children(of)) {
          if (counting) bv += cur.count()
          cur = ExecUtil.keep(cur, q.parentCol(c), q.rels(c), q.childCol(c))
        }
      if (bvp) applyBvs(0)
      for (l <- order) {
        if (counting) ht += l -> cur.count()
        cur = cur.join(q.rels(l), col(q.parentCol(l)) === col(q.childCol(l)))
        if (bvp) applyBvs(l)
      }
      val flat = cur.select(q.outputCols.map(col): _*)
      (flat, flat.count())
    }
    ExecResult(Some(flatAndOut._1),
      ProbeLog(ht, bv, 0L, flatAndOut._2, ms))
  }
}

/** COM execution (§4.2–4.3): the factorized representation, realized as one
  * DataFrame `A(i)` of *matched entries* per join-tree node, with survival
  * ("selection vector") semantics recomputed from the match sets.
  *
  * Probes into relation l = alive entries at l's parent level, where an
  * entry is alive iff (a) its own evaluated subtree still has a full match
  * chain (bottom-up `survivors`) and (b) its ancestors along the path are
  * alive w.r.t. their other evaluated branches (top-down walk). This is the
  * executable mirror of Eq. (1). With `bvp`, every `A(i)` is additionally
  * filtered at creation time by the key sets of i's future children —
  * bitvectors applied as soon as the attribute exists.
  */
object ComExecutor {

  def run(q: TreeQuery, order: Seq[Int], counting: Boolean = true,
          bvp: Boolean = false, flatOutput: Boolean = true): ExecResult = {
    CostModel.validateOrder(q.tree, order)
    val t  = q.tree
    val A  = new Array[DataFrame](t.n)
    var ht = Map.empty[Int, Long]
    var bv = 0L
    var eval = Set(0)

    /** Apply pending bitvectors of `i`'s children to `df` (entries at i's
      * level), charging bitvector probes.
      */
    def applyChildBvs(i: Int, df0: DataFrame): DataFrame = {
      var df = df0
      for (c <- t.children(i)) {
        if (counting) bv += df.count()
        df = ExecUtil.keep(df, q.parentCol(c), q.rels(c), q.childCol(c))
      }
      df
    }

    /** i's entries that survive i's evaluated subtree (bottom-up survival). */
    def survivors(i: Int): DataFrame = {
      var b = A(i)
      for (c <- t.children(i) if eval(c))
        b = ExecUtil.keep(b, q.parentCol(c), survivors(c), q.childCol(c))
      b
    }

    /** Alive entries at node p's level: top-down walk along root → p,
      * filtering every path node by its evaluated off-path branches.
      */
    def aliveEntries(p: Int): DataFrame = {
      val path = t.pathFromRoot(p)
      var cur: DataFrame = null
      for (idx <- path.indices) {
        val a      = path(idx)
        val onPath = if (idx + 1 < path.length) path(idx + 1) else -1
        cur =
          if (a == 0) A(0)
          else ExecUtil.keep(A(a), q.childCol(a), cur, q.parentCol(a))
        for (c <- t.children(a) if eval(c) && c != onPath)
          cur = ExecUtil.keep(cur, q.parentCol(c), survivors(c), q.childCol(c))
      }
      cur
    }

    val (out, ms) = ExecUtil.timed {
      // localCheckpoint (not persist): the alive/survival computation
      // re-derives plans over every prior A(i), so logical-plan size — and
      // with it Catalyst analysis time — grows super-linearly with depth
      // unless the lineage is truncated at each step.
      A(0) = (if (bvp) applyChildBvs(0, q.rels(0)) else q.rels(0)).localCheckpoint()

      for (l <- order) {
        val alive = aliveEntries(t.parent(l))
        if (counting) ht += l -> alive.count()
        var al = ExecUtil.keep(q.rels(l), q.childCol(l), alive, q.parentCol(l))
        eval += l
        if (bvp) al = applyChildBvs(l, al)
        A(l) = al.localCheckpoint()
      }

      if (flatOutput) {
        // Expansion: fold the factorized vectors back into flat tuples.
        var cur = A(0)
        for (l <- 1 until t.n)
          cur = cur.join(A(l), col(q.parentCol(l)) === col(q.childCol(l)))
        val flat = cur.select(q.outputCols.map(col): _*)
        (Some(flat), flat.count())
      } else {
        // Factorized output: materialize every node's alive entries.
        var entries = 0L
        for (i <- 0 until t.n) entries += aliveEntries(i).count()
        (None, entries)
      }
    }
    ExecResult(out._1, ProbeLog(ht, bv, 0L, out._2, ms))
  }
}

/** Semi-join full reduction (§4.5, Yannakakis §3.6): phase 1 reduces every
  * internal node bottom-up against its (already reduced) children in
  * ascending adjusted-match-probability order; the driver ends fully
  * reduced, leaves untouched. Phase 2 re-runs STD or COM over the reduced
  * relations. Semi-join probes = rows entering each reduction filter.
  */
object SjExecutor {

  def run(q: TreeQuery, phase2Order: Seq[Int], useCom: Boolean,
          counting: Boolean = true, flatOutput: Boolean = true): ExecResult = {
    CostModel.validateOrder(q.tree, phase2Order)
    val t       = q.tree
    val red     = SemiJoinModel.reductionRatios(t)
    var semiCnt = 0L
    val reduced = new Array[DataFrame](t.n)

    val (_, msP1) = ExecUtil.timed {
      for (i <- (t.n - 1) to 0 by -1) {
        var r = q.rels(i)
        val kids = t.children(i).sortBy { c =>
          val st = t.stats(c); SemiJoinModel.adjustedM(st.m, st.fo, red(c))
        }
        for (c <- kids) {
          if (counting) semiCnt += r.count()
          r = ExecUtil.keep(r, q.parentCol(c), reduced(c), q.childCol(c))
        }
        // Truncate lineage: phase 2 re-derives plans over these reductions.
        if (kids.nonEmpty) r = r.localCheckpoint()
        reduced(i) = r
      }
    }

    val q2 = q.copy(rels = reduced.toIndexedSeq)
    val res =
      if (useCom) ComExecutor.run(q2, phase2Order, counting, bvp = false, flatOutput)
      else StdExecutor.run(q2, phase2Order, counting)
    ExecResult(res.flat,
      res.log.copy(semiProbes = semiCnt, wallMs = res.log.wallMs + msP1))
  }
}

/** Dispatch facade over the six approaches (§4.1). */
object Engine {
  import repro.core.Approach
  import repro.core.Approach._

  def run(q: TreeQuery, order: Seq[Int], approach: Approach,
          counting: Boolean = true, flatOutput: Boolean = true): ExecResult =
    approach match {
      case Std    => StdExecutor.run(q, order, counting)
      case BvpStd => StdExecutor.run(q, order, counting, bvp = true)
      case Com    => ComExecutor.run(q, order, counting, flatOutput = flatOutput)
      case BvpCom => ComExecutor.run(q, order, counting, bvp = true, flatOutput = flatOutput)
      case SjStd  => SjExecutor.run(q, order, useCom = false, counting, flatOutput)
      case SjCom  => SjExecutor.run(q, order, useCom = true, counting, flatOutput)
    }
}
