package repro.rules

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeReference, EqualTo, Expression}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Join, JoinHint, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.trees.TreeNodeTag
import org.apache.spark.sql.types.LongType
import repro.core.{Approach, CostModel, EdgeStats, JoinTree, Optimizer, Weights}

/** The paper's plan search as a Catalyst optimizer rule.
  *
  * Detects a left-deep chain of inner equi-joins, extracts the rooted join
  * tree (driver = the chain's leftmost leaf), attaches the caller-supplied
  * match-probability/fanout statistics, picks a join order and an
  * executor, rebuilds the chain in that order, and tags every join of it
  * with the decision (`ManyToManyReorder.ChainTag`).
  *
  *  - When the engine can run the chain, that is every join column and
  *    every column the chain outputs is a non-null bigint, the order is
  *    the paper's COM order (exhaustive Algorithm 1 for chains of up to 12
  *    relations, survival-probability greedy beyond — §3.4) and the
  *    executor is the approach `CostModel.cost` ranks cheapest at that
  *    order. The `ManyToManyJoin` planner strategy then plans the chain as
  *    one operator that runs the engine.
  *  - Otherwise Spark runs the chain as flat joins, which is STD, so the
  *    order is the STD order (Algorithm 1 under the STD step cost, rank
  *    ordering beyond 12 relations).
  *
  * Statistics are keyed by the equi-join column-name pair (parent column,
  * child column). Names may repeat across relations (a self-join over
  * aliases of one table has the same columns in every alias), so a key
  * stands for every edge that joins on that pair of names.
  * The chain under a join is its left spine of inner joins on one
  * equality each; the spine ends at the first other operator (a join of
  * another type or condition, or one with a join on its right side), which
  * is then the chain's driver. A join is kept as written and untagged when
  * its chain has an unknown edge, or fewer than 3 or more than
  * `JoinTree.MaxRelations` relations. The rule still visits the joins below
  * such a join, so a sub-chain that qualifies is handled on its own: for
  * example the known prefix of a chain whose last edge has no statistics.
  * A chain already in its chosen order is tagged and not rewritten.
  *
  * Inject via `spark.experimental.extraOptimizations`; the rule adds the
  * strategy to the active session's `experimental.extraStrategies`. The
  * optimizer runs no Spark job for it. A tagged join is not re-entered by
  * the fixpoint driver.
  */
final case class ManyToManyReorder(statsOf: (String, String) => Option[EdgeStats])
    extends Rule[LogicalPlan] {
  import ManyToManyReorder._

  private val ExhaustiveUpTo = 12

  override def apply(plan: LogicalPlan): LogicalPlan = {
    val x = SparkSession.active.experimental
    if (!x.extraStrategies.contains(ManyToManyJoin)) x.extraStrategies :+= ManyToManyJoin
    plan.transformDown {
      case j: Join if j.joinType == Inner && j.getTagValue(ChainTag).isEmpty =>
        rewrite(j).getOrElse(j)
    }
  }

  private def rewrite(j: Join): Option[LogicalPlan] = {
    val (driver, joins) = spine(j)
    val leaves = (driver +: joins.map(_.right)).toIndexedSeq
    val conds  = joins.map(_.condition.get.asInstanceOf[EqualTo]).toIndexedSeq
    val n      = leaves.length
    // conds(i-1) connects leaf i to exactly one earlier leaf (its parent).
    lazy val edges = (1 until n).map(i => edge(leaves.map(_.output), conds(i - 1), i))
    lazy val stats = edges.map(_.flatMap { case (p, pa, ca) =>
      statsOf(pa.name, ca.name).map(s => (p, s.m, s.fo))
    })
    if (n < 3 || n > JoinTree.MaxRelations || stats.contains(None)) return None

    val tree     = JoinTree(stats.flatten, driverSize = 1.0)
    val declined = (edges.flatten.flatMap(e => Seq(e._2, e._3)) ++ j.output)
      .find(a => a.dataType != LongType || a.nullable)
      .map { a =>
        val kind = (if (a.nullable) "nullable " else "") + a.dataType.simpleString
        s"column ${a.name} is $kind, not a non-null bigint"
      }
    val chain = declined match {
      case None =>
        val order =
          if (n <= ExhaustiveUpTo) Optimizer.exhaustiveCom(tree)._1
          else Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)
        Chain(tree, conds, order, Approach.all.minBy(Chain.cost(tree, order, _)), None)
      case why =>
        val order =
          if (n <= ExhaustiveUpTo) Optimizer.exhaustiveStd(tree)._1
          else Optimizer.greedy(tree, Optimizer.Heuristic.RankOrdering)
        Chain(tree, conds, order, Approach.Std, why)
    }

    // Already in the chosen order? Tag the chain and leave it as it is.
    if (chain.order == chain.written) {
      joins.foreach(_.setTagValue(ChainTag, chain))
      return None
    }

    var rebuilt: LogicalPlan = leaves(0)
    for (l <- chain.order) {
      rebuilt = Join(rebuilt, leaves(l), Inner, Some(conds(l - 1)), JoinHint.NONE)
      rebuilt.setTagValue(ChainTag, chain)
    }
    // Join reordering permutes the output attribute order; restore the
    // original schema so parent operators are unaffected.
    Some(Project(j.output, rebuilt))
  }
}

object ManyToManyReorder {

  /** What the rule decided for a chain; every join of the chain carries it.
    *
    * @param tree     the chain's join tree: node 0 its driver (leftmost
    *                 leaf), node i the right leaf of its i-th join as
    *                 written, with each edge's statistics (driver size 1)
    * @param conds    node i's join condition at i − 1
    * @param order    the chosen order
    * @param approach what runs the chain, and what costs its orders: the
    *                 engine's approach, or STD when Spark runs it
    * @param declined why the engine does not run the chain, if it does not
    */
  final case class Chain(tree: JoinTree, conds: IndexedSeq[EqualTo], order: List[Int],
                         approach: Approach, declined: Option[String]) {
    def written: List[Int] = (1 until tree.n).toList

    def cost(o: Seq[Int]): Double = Chain.cost(tree, o, approach)

    override def toString: String = {
      def costed(o: Seq[Int]) = f"[${o.mkString(",")}] cost ${cost(o)}%.4g"
      s"$tree, written ${costed(written)}, chosen ${costed(order)}, " +
        declined.fold(s"approach ${approach.name}")(why => s"STD on Spark: $why")
    }
  }

  object Chain {
    /** The weighted cost of `order` under `approach`, with flat output. */
    def cost(tree: JoinTree, order: Seq[Int], approach: Approach): Double =
      CostModel.cost(tree, order, approach).total(Weights())
  }

  /** The rule's decision, on every join of a chain it tagged. */
  val ChainTag: TreeNodeTag[Chain] = TreeNodeTag[Chain]("repro.m2mChain")

  /** Column pruning interleaves attribute-only Projects between the joins;
    * strip them when walking the chain (the rewrite re-establishes the
    * original output schema with a single top-level Project).
    */
  @annotation.tailrec
  private def stripPrune(p: LogicalPlan): LogicalPlan = p match {
    case Project(list, child) if list.forall(_.isInstanceOf[AttributeReference]) =>
      stripPrune(child)
    case other => other
  }

  /** The left-deep chain of inner equi-joins under `plan`: its driver leaf
    * and its joins, innermost first; join k brings in the leaf on its right.
    * The driver keeps its own pruning Project, as the right leaves do, so
    * it reads only the columns the chain needs.
    */
  def spine(plan: LogicalPlan): (LogicalPlan, List[Join]) =
    stripPrune(plan) match {
      case j @ Join(l, r, Inner, Some(_: EqualTo), _) if !r.exists(_.isInstanceOf[Join]) =>
        val (d, js) = spine(l)
        (d, js :+ j)
      case _ => (plan, Nil)
    }

  /** The one leaf that outputs `e`, with the attribute as it outputs it,
    * if `e` is an attribute and exactly one of `outputs` holds it.
    */
  def owner(outputs: IndexedSeq[Seq[Attribute]], e: Expression): Option[(Int, Attribute)] = e match {
    case a: AttributeReference =>
      outputs.indices.flatMap(i => outputs(i).find(_.exprId == a.exprId).map(i -> _)) match {
        case Seq(hit) => Some(hit)
        case _        => None
      }
    case _ => None
  }

  /** The edge that condition `c` adds for leaf `i`: (parent, parent
    * attribute, child attribute), if `c` equates an attribute of `i` with
    * one of a single earlier leaf; `outputs` are the leaves' outputs.
    */
  def edge(outputs: IndexedSeq[Seq[Attribute]], c: EqualTo, i: Int): Option[(Int, Attribute, Attribute)] =
    (owner(outputs, c.left), owner(outputs, c.right)) match {
      case (Some((x, a)), Some((y, b))) if x == i && y < i => Some((y, b, a))
      case (Some((x, a)), Some((y, b))) if y == i && x < i => Some((x, a, b))
      case _                                               => None
    }
}
