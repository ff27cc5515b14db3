package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{EdgeStats, Estimation, JoinTree}

/** Generator for join-tree datasets with *controlled* per-edge match
  * probability and fanout — the substrate for the paper's synthetic
  * benchmark (§5.2).
  *
  * Generative model (documented in DESIGN.md):
  *  - the driver holds keys 1..N in column `k0`;
  *  - for an edge parent→child with stats (m, fo), every parent key flips a
  *    seeded coin (xxhash64-based, independent across edges) and, with
  *    probability m, contributes ⌊fo⌋ or ⌈fo⌉ child rows (the fractional
  *    part is another seeded coin, so E[rows | matched] = fo);
  *  - a child row's own key is `parentKey·16 + copyIndex`, which keeps key
  *    columns row-unique and fully deterministic without shuffles — the
  *    property the paper's cost formulas assume (a child row matches
  *    exactly one parent row). Requires fo < 16 and keys that fit a
  *    `Long`: (N + 1)·16^depth ≤ 2⁶³.
  *
  * Everything is expressed in the DataFrame API; no RDD-level code.
  */
object TreeData {

  /** Maximum supported fanout (key-packing uses 4 bits per level). */
  val MaxFanout = 15.0

  /** Child relation of `parentKeys` (a single-column DataFrame named `pk`)
    * for node `node` with the given stats.
    */
  private[data] def childOf(parentKeys: DataFrame, node: Int, m: Double, fo: Double,
                            seed: Long): DataFrame = {
    require(fo >= 1.0 && fo <= MaxFanout, s"fanout $fo outside [1, $MaxFanout]")
    val base  = math.floor(fo).toLong
    val frac  = fo - base
    val sMatch = seed * 7919 + node * 13 + 1
    val sFrac  = seed * 7919 + node * 13 + 2
    val sPay   = seed * 7919 + node * 13 + 3
    val cnt =
      lit(base) + when(Draw.u01(col("pk"), sFrac) < frac, 1L).otherwise(0L)
    parentKeys
      .where(Draw.u01(col("pk"), sMatch) < m)
      .select(col("pk").as(s"fk$node"), explode(sequence(lit(1L), cnt)).as("copy"))
      .select(
        (col(s"fk$node") * 16 + col("copy")).as(s"k$node"),
        col(s"fk$node"),
        pmod(xxhash64(col(s"fk$node") * 16 + col("copy"), lit(sPay)), lit(1000L))
          .cast("int").as(s"p$node"),
      )
  }

  /** Materialize all relations of a join tree at driver cardinality
    * `tree.driverSize` (rounded). Returns a ready-to-execute [[TreeQuery]].
    */
  def generate(spark: SparkSession, tree: JoinTree, seed: Long = 42L): TreeQuery = {
    val n = tree.n
    val driverN = math.max(1L, math.round(tree.driverSize))
    val depth   = (0 until n).map(tree.depth).max
    require(BigInt(driverN + 1) * BigInt(16).pow(depth) <= BigInt(2).pow(63),
      s"keys overflow Long: driver size $driverN at depth $depth, (N + 1)·16^depth > 2^63")
    val rels = new Array[DataFrame](n)
    rels(0) = spark.range(1, driverN + 1).select(
      col("id").as("k0"),
      pmod(xxhash64(col("id"), lit(seed)), lit(1000L)).cast("int").as("p0"),
    )
    for (i <- 1 until n) {
      val p  = tree.parent(i)
      val st = tree.stats(i)
      val parentKeys = rels(p).select(col(s"k$p").as("pk"))
      rels(i) = childOf(parentKeys, i, st.m, st.fo, seed)
    }
    TreeQuery(
      tree,
      rels.toIndexedSeq,
      parentCol = (0 until n).map(i => if (i == 0) "" else s"k${tree.parent(i)}"),
      childCol  = (0 until n).map(i => if (i == 0) "" else s"fk$i"),
      keyCol    = (0 until n).map(i => s"k$i"),
    )
  }

  /** `q`'s join tree with *measured* rather than requested statistics:
    * each edge's exact (m, fo) (`Estimation.trueStats`, probing from the
    * parent) and the driver's row count as the driver size. Used by tests
    * to verify the generator hits the requested (m, fo) and by experiments
    * that compare the cost model with execution.
    */
  def measuredTree(q: TreeQuery): JoinTree = {
    val t     = q.tree
    val stats = (1 until t.n).map { i =>
      Estimation.trueStats(q.rels(t.parent(i)), q.parentCol(i), q.rels(i), q.childCol(i))
    }
    new JoinTree(t.parent, (EdgeStats(1, 1) +: stats).toArray, t.probeCost,
      q.rels(0).count().toDouble)
  }
}
