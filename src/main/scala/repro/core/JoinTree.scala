package repro.core

import scala.util.Random

/** Statistics of a single join edge, probing from parent into child.
  *
  * @param m  match probability: P(an input tuple finds at least one match)
  * @param fo fanout: average number of matches for a tuple that does match
  */
final case class EdgeStats(m: Double, fo: Double) {
  require(m >= 0.0 && m <= 1.0, s"match probability out of range: $m")
  // A matching tuple has at least one match: fo < 1 is outside the model.
  require(fo >= 1.0, s"fanout must be at least 1: $fo")

  /** Classical selectivity of the join operator: s = m × fo (§3.1). */
  def s: Double = m * fo
}

/** A rooted acyclic join tree (§2.1). Node 0 is always the driver relation.
  *
  * For `i > 0`, `parent(i)` is the relation whose attribute node `i` joins
  * on, and `stats(i)` are the match probability / fanout of probing from the
  * parent side into relation `i`. `probeCost(i)` is the per-probe cost `c_i`
  * of the generalized join operator for relation `i` (hash-table lookup,
  * index lookup, API call, ...).
  *
  * `size(i)` is the relation cardinality `|R_i|`; it is needed only by the
  * semi-join (Yannakakis) cost model, which counts probes proportional to
  * base-relation sizes. By default sizes follow the generative model used by
  * our data generator: `|c| = |p| × m × fo` (every child row has exactly one
  * parent row).
  *
  * Serializable, because Spark serializes physical plans that hold one
  * (`repro.rules.ManyToManyJoinExec`) with the tasks that capture them.
  */
final class JoinTree(
    val parent: Array[Int],
    val stats: Array[EdgeStats],
    val probeCost: Array[Double],
    val driverSize: Double,
) extends Serializable {
  require(parent.length == stats.length && parent.length == probeCost.length)
  require(parent.length >= 1 && parent(0) == -1, "node 0 must be the root/driver")
  require(parent.length <= JoinTree.MaxRelations,
    s"at most ${JoinTree.MaxRelations} relations (evaluated sets are Int bitmasks), got ${parent.length}")
  require(parent.zipWithIndex.drop(1).forall { case (p, i) => p >= 0 && p < i },
    "parents must precede children (topological node numbering)")

  /** Number of relations (including the driver). */
  val n: Int = parent.length

  /** Children adjacency, in node order. */
  val children: Array[List[Int]] = {
    val cs = Array.fill(n)(List.newBuilder[Int])
    var i = 1
    while (i < n) { cs(parent(i)) += i; i += 1 }
    cs.map(_.result())
  }

  /** Path root → node (inclusive of both endpoints). */
  def pathFromRoot(i: Int): List[Int] = {
    var cur  = i
    var path = List.empty[Int]
    while (cur != -1) { path = cur :: path; cur = parent(cur) }
    path
  }

  /** Depth of node i (root = 0). */
  def depth(i: Int): Int = pathFromRoot(i).length - 1

  /** Relation sizes under the generative model |c| = |p| × s. */
  lazy val size: Array[Double] = {
    val sz = new Array[Double](n)
    sz(0) = driverSize
    var i = 1
    while (i < n) { sz(i) = sz(parent(i)) * stats(i).s; i += 1 }
    sz
  }

  /** Expected flat result cardinality OUT = N × Π sᵢ (independence). */
  def expectedOutput: Double = (1 until n).foldLeft(driverSize)((acc, i) => acc * stats(i).s)

  /** Nodes whose parent is inside the evaluated set but which are not
    * themselves evaluated — the joins eligible to run next in a left-deep
    * plan, in node order. `evalMask` has bit i set when relation i is
    * evaluated.
    */
  def eligible(evalMask: Int): List[Int] =
    (1 until n).filter(i => (evalMask & (1 << i)) == 0 && (evalMask & (1 << parent(i))) != 0).toList

  override def toString: String =
    s"JoinTree(n=$n, parent=${parent.mkString(",")}, " +
      s"stats=${stats.drop(1).map(e => f"(${e.m}%.2f,${e.fo}%.1f)").mkString(";")})"
}

object JoinTree {

  /** Most relations a tree may hold: evaluated sets are `Int` bitmasks. */
  val MaxRelations = 32

  /** Build a tree from (parent, m, fo) triples for nodes 1..n-1, with unit
    * probe costs and the given driver cardinality.
    */
  def apply(edges: Seq[(Int, Double, Double)], driverSize: Double = 1.0,
            probeCost: Seq[Double] = Nil): JoinTree = {
    val n  = edges.length + 1
    val pa = (-1 +: edges.map(_._1)).toArray
    val st = (EdgeStats(1.0, 1.0) +: edges.map(e => EdgeStats(e._2, e._3))).toArray
    val pc = if (probeCost.isEmpty) Array.fill(n)(1.0) else probeCost.toArray
    new JoinTree(pa, st, pc, driverSize)
  }

  // ---- canonical query shapes used throughout the evaluation (§5.2) ----

  /** Star query: driver + (n-1) satellites all joining the driver. */
  def star(nRelations: Int, stats: Seq[EdgeStats], driverSize: Double = 1.0): JoinTree = {
    require(stats.length == nRelations - 1)
    apply(stats.map(e => (0, e.m, e.fo)), driverSize)
  }

  /** Path query with the *center* relation as the driver: two arms of
    * (roughly) equal length hang off node 0. nRelations = 11 gives the
    * paper's 11-relation path query.
    */
  def centeredPath(nRelations: Int, stats: Seq[EdgeStats], driverSize: Double = 1.0): JoinTree = {
    require(stats.length == nRelations - 1)
    val left  = (nRelations - 1) / 2
    // Arm 1: 0 <- 1 <- 2 ... ; Arm 2: 0 <- left+1 <- left+2 ...
    val edges = (1 until nRelations).map { i =>
      val p = if (i == 1 || i == left + 1) 0 else i - 1
      (p, stats(i - 1).m, stats(i - 1).fo)
    }
    apply(edges, driverSize)
  }

  /** Snowflake: the driver has `arms` children, each of which has `sub`
    * children of its own. "3-2" → arms=3, sub=2 (10 relations);
    * "5-1" → arms=5, sub=1 (11 relations).
    */
  def snowflake(arms: Int, sub: Int, stats: Seq[EdgeStats], driverSize: Double = 1.0): JoinTree = {
    require(stats.length == arms * (1 + sub))
    val edges = scala.collection.mutable.ListBuffer.empty[(Int, Double, Double)]
    var idx = 0
    for (_ <- 0 until arms) {
      val armNode = edges.length + 1
      edges += ((0, stats(idx).m, stats(idx).fo)); idx += 1
      for (_ <- 0 until sub) {
        edges += ((armNode, stats(idx).m, stats(idx).fo)); idx += 1
      }
    }
    apply(edges.toSeq, driverSize)
  }

  /** The paper's 6-relation running example (Fig 1): R1 driver; R2, R5 join
    * R1; R3, R4 join R2; R6 joins R5. Node ids: R1=0, R2=1, R3=2, R4=3,
    * R5=4, R6=5.
    */
  def runningExample(stats: Seq[EdgeStats], driverSize: Double = 1.0): JoinTree = {
    require(stats.length == 5)
    apply(Seq(
      (0, stats(0).m, stats(0).fo), // R2
      (1, stats(1).m, stats(1).fo), // R3
      (1, stats(2).m, stats(2).fo), // R4
      (0, stats(3).m, stats(3).fo), // R5
      (4, stats(4).m, stats(4).fo), // R6
    ), driverSize)
  }

  private val MaxRootKids = 5
  private val MaxKids     = 3

  /** Random join tree following §5.1: root gets [2, MaxRootKids] children,
    * every other node [0, MaxKids]; match probabilities uniform in `mRange`,
    * fanouts uniform in `foRange`. Generation proceeds breadth-first until
    * `nNodes` relations exist.
    */
  def random(nNodes: Int, mRange: (Double, Double), foRange: (Double, Double),
             rng: Random, driverSize: Double = 1.0): JoinTree = {
    require(nNodes >= 2)
    val parents = scala.collection.mutable.ArrayBuffer(-1)
    val queue   = scala.collection.mutable.Queue(0)
    while (parents.length < nNodes && queue.nonEmpty) {
      val p    = queue.dequeue()
      val kids =
        if (p == 0) 2 + rng.nextInt(MaxRootKids - 1)
        else rng.nextInt(MaxKids + 1)
      var k = 0
      while (k < kids && parents.length < nNodes) {
        parents += p
        queue.enqueue(parents.length - 1)
        k += 1
      }
    }
    // If generation stalled (all leaves drew 0 children), attach remaining
    // nodes to uniformly random existing nodes to reach the requested size.
    while (parents.length < nNodes) parents += rng.nextInt(parents.length)
    val u = { (lo: Double, hi: Double) => lo + rng.nextDouble() * (hi - lo) }
    val edges = parents.toSeq.drop(1).map(p => (p, u(mRange._1, mRange._2), u(foRange._1, foRange._2)))
    apply(edges, driverSize)
  }
}
