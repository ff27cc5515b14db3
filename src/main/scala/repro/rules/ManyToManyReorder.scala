package repro.rules

import org.apache.spark.sql.catalyst.expressions.{AttributeReference, EqualTo}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Join, JoinHint, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.trees.TreeNodeTag
import repro.core.{EdgeStats, JoinTree, Optimizer}

/** The paper's plan search as a Catalyst optimizer rule.
  *
  * Detects a left-deep chain of inner equi-joins, extracts the rooted join
  * tree (driver = the chain's leftmost leaf), attaches the caller-supplied
  * match-probability/fanout statistics, runs the paper's join-order search
  * (exhaustive Algorithm 1 for chains of up to 12 relations,
  * survival-probability greedy beyond — §3.4), and rebuilds the chain in
  * the chosen order.
  *
  * Statistics are keyed by the equi-join column-name pair
  * (parent column, child column) — in this repository every relation's
  * columns are globally uniquely named, which makes the key unambiguous.
  * The chain under a join is its left spine of inner joins on one
  * equality each; the spine ends at the first other operator (a join of
  * another type or condition, or one with a join on its right side), which
  * is then the chain's driver. A join is kept as written when its chain has an
  * unknown edge, or fewer than 3 or more than `JoinTree.MaxRelations`
  * relations. The rule still visits the joins below a kept one, so a
  * sub-chain that qualifies is reordered on its own: for example the known
  * prefix of a chain whose last edge has no statistics.
  *
  * Inject via `spark.experimental.extraOptimizations`. A rebuilt chain is
  * tagged so the fixpoint driver does not re-enter it.
  */
final case class ManyToManyReorder(statsOf: (String, String) => Option[EdgeStats])
    extends Rule[LogicalPlan] {

  private val ExhaustiveUpTo = 12

  private val reorderedTag = TreeNodeTag[Boolean]("repro.m2mReordered")

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

  private def containsJoin(p: LogicalPlan): Boolean =
    p.exists(_.isInstanceOf[Join])

  /** Flatten a left-deep chain of inner equi-joins into (leaves, conds). */
  private def flatten(plan: LogicalPlan): (List[LogicalPlan], List[EqualTo]) =
    stripPrune(plan) match {
      case Join(l, r: LogicalPlan, Inner, Some(c: EqualTo), _) if !containsJoin(r) =>
        val (ls, cs) = flatten(l)
        (ls :+ r, cs :+ c)
      case other => (List(other), Nil)
    }

  private def ownerOf(leaves: List[LogicalPlan], a: AttributeReference): Option[Int] = {
    val hits = leaves.zipWithIndex.collect {
      case (p, i) if p.outputSet.exists(_.exprId == a.exprId) => i
    }
    hits match { case List(i) => Some(i); case _ => None }
  }

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformDown {
    case j: Join if j.joinType == Inner && j.getTagValue(reorderedTag).isEmpty =>
      rewrite(j).getOrElse(j)
  }

  /** The edge that condition `c` adds for leaf `i`: (parent, parent column,
    * child column), if `c` equates an attribute of `i` with one of a single
    * earlier leaf.
    */
  private def edge(leaves: List[LogicalPlan], c: EqualTo, i: Int): Option[(Int, String, String)] =
    (c.left, c.right) match {
      case (a: AttributeReference, b: AttributeReference) =>
        (ownerOf(leaves, a), ownerOf(leaves, b)) match {
          case (Some(x), Some(y)) if x == i && y < i => Some((y, b.name, a.name))
          case (Some(x), Some(y)) if y == i && x < i => Some((x, a.name, b.name))
          case _                                     => None
        }
      case _ => None
    }

  private def rewrite(j: Join): Option[LogicalPlan] = {
    val (leaves, conds) = flatten(j)
    val n = leaves.length
    // conds(i-1) connects leaf i to exactly one earlier leaf (its parent).
    lazy val stats = (1 until n).map { i =>
      edge(leaves, conds(i - 1), i).flatMap { case (p, pc, cc) =>
        statsOf(pc, cc).map(s => (p, s.m, s.fo))
      }
    }
    if (n < 3 || n > JoinTree.MaxRelations || stats.contains(None)) return None

    val tree = JoinTree(stats.flatten, driverSize = 1.0)
    val order =
      if (n <= ExhaustiveUpTo) Optimizer.exhaustiveCom(tree)._1
      else Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)

    // Already in the chosen order? Leave the plan untouched (fixpoint).
    if (order == (1 until n).toList) { j.setTagValue(reorderedTag, true); return None }

    var rebuilt: LogicalPlan = leaves(0)
    for (l <- order)
      rebuilt = Join(rebuilt, leaves(l), Inner, Some(conds(l - 1)), JoinHint.NONE)
    rebuilt.foreach {
      case jj: Join => jj.setTagValue(reorderedTag, true)
      case _        =>
    }
    // Join reordering permutes the output attribute order; restore the
    // original schema so parent operators are unaffected.
    Some(Project(j.output, rebuilt))
  }
}
