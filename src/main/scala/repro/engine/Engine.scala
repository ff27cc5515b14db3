package repro.engine

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.codegen.UnsafeRowWriter
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import scala.collection.mutable
import repro.core.{Approach, CostModel, JoinTree, SemiJoinModel}
import repro.data.TreeQuery

/** Result of one plan execution: the flat result (when requested) and the
  * measured probe log.
  */
final case class ExecResult(flat: Option[DataFrame], log: ProbeLog)

/** Runs a left-deep pipelined plan under one of the six approaches (§4.1),
  * in two Spark jobs, counted or not:
  *
  *  1. One job, in one task, collects the columns the plan needs from
  *     relations 1…n−1. The driver indexes each relation by its join key
  *     (`KeyIndex`), runs SJ's phase 1 on them (the build sides are
  *     global), and broadcasts them with the plan.
  *  2. One job runs the approach over each partition of the driver
  *     relation (`Pipeline`), in vectors, and returns the partition's
  *     counts.
  *
  * No job shuffles. Both jobs read the relations as `RDD[InternalRow]`s
  * (`Inputs`), by column ordinal. `run` reads a `TreeQuery`'s relations
  * through their own query plans (`queryExecution.toRdd`), which Spark
  * plans once per DataFrame, so a call plans no query; a relation
  * persisted after the engine first read it is still read from its
  * source. `flat` is the same path without job 2, for the
  * `ManyToManyJoinExec` operator over its children's rows: the pipeline
  * then runs in the job of the query that reads the flat result. A build
  * side is held in the driver's memory, as the paper's hash tables are:
  * one too large for job 1's collect fails it through
  * `spark.driver.maxResultSize` rather than spilling. Every join and
  * output column must be a non-null bigint.
  *
  * Every function the engine hands Spark is an instance of a named class
  * below, and both jobs start through `SparkContext.runJob` rather than
  * `RDD.collect`. Spark's `ClosureCleaner` scans the bytecode of the class
  * that defines a lambda, for every job and `mapPartitions` that receives
  * one (`collect`'s own lambdas live in `RDD` and `SparkContext`), and
  * caches nothing; it skips a class that is not a lambda. That scan was
  * most of a call's driver time at small sizes, so no lambda may reach
  * Spark from here.
  */
object Engine {
  /** The relations of a plan as the engine reads them: each one's rows and
    * the ordinals there of the columns it reads, every one a non-null
    * bigint.
    *
    * @param rows      relation i's rows, indexed by node
    * @param parentCol for i ≥ 1: the ordinal, in the rows of `parent(i)`,
    *                  of the column that relation i joins on
    * @param childCol  for i ≥ 1: the ordinal, in relation i's rows, of the
    *                  column that joins it to its parent
    * @param out       the output columns, in order: (relation, ordinal)
    */
  final case class Inputs(rows: IndexedSeq[RDD[InternalRow]], parentCol: IndexedSeq[Int],
                          childCol: IndexedSeq[Int], out: IndexedSeq[(Int, Int)])

  /** Runs `approach` over `q` in `order` (for SJ, the phase-2 order).
    *
    * Every count is a sum over the driver's partitions of what the pipeline
    * did. Probes into relation l's hash table = lookups into it: one per
    * flat tuple entering its join for STD, one per alive entry of `parent(l)`
    * for COM. Bitvector and semi-join probes = inputs of each key-set filter.
    * The output rows are the flat result's, or, with `flatOutput = false`
    * (COM family only), the alive entries of every relation: the factorized
    * result. The counts are always taken; `counting` decides whether the
    * probes are reported. The flat result is a lazy DataFrame over the same
    * pipeline, with the columns `q.outputCols`.
    */
  def run(q: TreeQuery, order: Seq[Int], approach: Approach,
          counting: Boolean = true, flatOutput: Boolean = true): ExecResult = {
    val t = q.tree
    def ordinal(i: Int, c: String): Int = {
      val dt = q.rels(i).schema(c).dataType
      require(dt == LongType, s"column $c of relation $i is ${dt.simpleString}, not bigint")
      q.rels(i).schema.fieldIndex(c)
    }
    val in = Inputs(q.rels.map(_.queryExecution.toRdd),
      parentCol = (0 until t.n).map(i => if (i == 0) -1 else ordinal(t.parent(i), q.parentCol(i))),
      childCol  = (0 until t.n).map(i => if (i == 0) -1 else ordinal(i, q.childCol(i))),
      out       = (0 until t.n).map(i => (i, ordinal(i, q.keyCol(i)))))
    val (bc, semi) = prepare(t, order, approach, flatOutput, in)

    val driver = in.rows(0)
    val parts  = new Array[Counters](driver.getNumPartitions)
    driver.sparkContext.runJob(driver, new RunPipeline(bc), parts.indices, (p: Int, c: Counters) => parts(p) = c)

    val out = parts.map(_.out).sum
    val log =
      if (!counting) ProbeLog(Map.empty, 0L, 0L, out)
      else ProbeLog(order.indices.map(s => order(s) -> parts.map(_.ht(s)).sum).toMap,
        parts.map(_.bv).sum, semi + parts.map(_.semi).sum, out)

    val flat = if (!flatOutput) None else {
      val schema = StructType(q.outputCols.map(StructField(_, LongType, nullable = false)))
      Some(q.rels(0).sparkSession.createDataFrame(driver.mapPartitions(new FlatRows(bc)).map(new ToRow), schema))
    }
    ExecResult(flat, log)
  }

  /** The flat result of `approach` over `in` in `order`, lazily: one
    * `UnsafeRow` of the output columns per tuple. Job 1 runs now.
    */
  def flat(tree: JoinTree, order: Seq[Int], approach: Approach, in: Inputs): RDD[InternalRow] =
    in.rows(0).mapPartitions(new FlatRows(prepare(tree, order, approach, flatOutput = true, in)._1))

  /** Job 1 and the driver's part: the plan, broadcast, and SJ's phase-1
    * semi-join probes.
    */
  private def prepare(t: JoinTree, order: Seq[Int], approach: Approach, flatOutput: Boolean,
                      in: Inputs): (Broadcast[Plan], Long) = {
    CostModel.validateOrder(t, order)
    require(flatOutput || approach.usesCom, s"${approach.name} has no factorized output")

    // The columns each relation contributes, as ordinals in its rows: its
    // output columns, its join column and the join columns of its children.
    val ordinals = (0 until t.n).map { i =>
      (in.out.collect { case (`i`, o) => o } ++ (if (i == 0) Nil else Seq(in.childCol(i))) ++
        t.children(i).map(in.parentCol)).distinct.toArray
    }
    val outAt  = in.out.map { case (i, o) => ordinals(i).indexOf(o) }.toArray
    val linkAt = Array.tabulate(t.n)(i => if (i == 0) -1 else ordinals(t.parent(i)).indexOf(in.parentCol(i)))
    val cols   = collect(in.rows, ordinals)

    // SJ phase 1 (§4.5, Yannakakis §3.6) on relations 1…n−1, bottom-up:
    // each is reduced by its already reduced children in ascending
    // adjusted-match-probability order; the pipeline reduces the driver.
    val p1    = SemiJoinModel.phase1Order(t)
    val index = new Array[KeyIndex](t.n)
    var semi  = 0L
    for (i <- (t.n - 1) to 1 by -1) {
      if (approach.semiJoins) {
        var rows = Array.range(0, cols(i)(0).length)
        for (c <- p1(i)) {
          semi += rows.length
          val links = cols(i)(linkAt(c))
          rows = rows.filter(r => index(c).contains(links(r)))
        }
        cols(i) = cols(i).map(c => rows.map(c))
      }
      index(i) = KeyIndex(cols(i)(ordinals(i).indexOf(in.childCol(i))))
    }
    val drivers =
      if (approach.semiJoins) p1(0).toArray
      else if (approach.bitvectors) t.children(0).toArray
      else Array.emptyIntArray
    val plan = new Plan(t.parent.clone(), t.children.map(_.toArray), order.toArray, approach,
      flatOutput, cols, ordinals(0), in.out.map(_._1).toArray, outAt, linkAt, index, drivers)
    (in.rows(0).sparkContext.broadcast(plan), semi)
  }

  /** Job 1: the columns at `ordinals(i)` of relations 1…n−1, as `Long`
    * arrays, in one task over their union. `cols(0)` is empty.
    *
    * A union's task carries the lineage of every relation in it, so one
    * task (`coalesce(1)`, no shuffle) deserializes each relation's query
    * once where a task per partition would do it once per partition.
    */
  private def collect(rels: IndexedSeq[RDD[InternalRow]],
                      ordinals: IndexedSeq[Array[Int]]): Array[Array[Array[Long]]] = {
    val n    = rels.length
    val cols = Array.fill(n)(Array.empty[Array[Long]])
    if (n > 1) {
      val rdds  = (1 until n).map(i => rels(i).mapPartitions(new ReadColumns(ordinals(i), i)))
      val sc    = rdds.head.sparkContext
      val build = sc.union(rdds).coalesce(1)
      val parts = mutable.ArrayBuffer.empty[Part]
      sc.runJob(build, new ToArray, build.partitions.indices, (_: Int, ps: Array[Part]) => parts ++= ps)
      for (i <- 1 until n) {
        val mine = parts.filter(_.rel == i).toArray
        cols(i) = Array.tabulate(ordinals(i).length)(j => mine.flatMap(_.cols(j)))
      }
    }
    cols
  }

  /** One partition of relation `rel`, as its columns. */
  private final case class Part(rel: Int, cols: Array[Array[Long]])

  /** Job 1's reader: a partition of relation `rel` as one `Part` with the
    * columns at `ords`, as `Long` arrays.
    */
  private final class ReadColumns(ords: Array[Int], rel: Int)
      extends (Iterator[InternalRow] => Iterator[Part]) with Serializable {
    def apply(rows: Iterator[InternalRow]): Iterator[Part] = {
      val b = Array.fill(ords.length)(new mutable.ArrayBuilder.ofLong)
      for (row <- rows; j <- ords.indices) {
        require(!row.isNullAt(ords(j)), s"the join and key columns of relation $rel hold no nulls")
        b(j) += row.getLong(ords(j))
      }
      Iterator.single(Part(rel, b.map(_.result())))
    }
  }

  /** Job 1's result: every `Part` of the task's partition. */
  private final class ToArray extends ((TaskContext, Iterator[Part]) => Array[Part]) with Serializable {
    def apply(ctx: TaskContext, parts: Iterator[Part]): Array[Part] = parts.toArray
  }

  /** Job 2: one driver partition through the pipeline, as its counts. */
  private final class RunPipeline(bc: Broadcast[Plan])
      extends ((TaskContext, Iterator[InternalRow]) => Counters) with Serializable {
    def apply(ctx: TaskContext, rows: Iterator[InternalRow]): Counters = new Pipeline(bc.value, null).run(rows)
  }

  /** The flat result: one driver partition's output tuples, as `UnsafeRow`s
    * of their output columns. The row is reused.
    */
  private final class FlatRows(bc: Broadcast[Plan])
      extends (Iterator[InternalRow] => Iterator[InternalRow]) with Serializable {
    def apply(rows: Iterator[InternalRow]): Iterator[InternalRow] = {
      val w = new UnsafeRowWriter(bc.value.outRel.length)
      Pipeline.tuples(bc.value, rows).map { ks =>
        w.reset()
        w.zeroOutNullBytes()
        for (k <- ks.indices) w.write(k, ks(k))
        w.getRow
      }
    }
  }

  /** A flat result row as a `Row` of bigints. */
  private final class ToRow extends (InternalRow => Row) with Serializable {
    def apply(r: InternalRow): Row = Row.fromSeq((0 until r.numFields).map(r.getLong))
  }
}
