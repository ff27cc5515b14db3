package repro.rules

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeReference}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan, Project}
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}
import org.apache.spark.sql.types.LongType
import repro.engine.Engine
import repro.rules.ManyToManyReorder.{Chain, ChainTag}

/** Plans a chain that `ManyToManyReorder` tagged for the engine as one
  * `ManyToManyJoinExec` over the chain's leaves: the chain's top join, or
  * an attribute-only Project right above it, whose attributes are then the
  * operator's output.
  *
  * The strategy leaves the plan to Spark's own join planning when the
  * tag declines the chain, when the chain under the tagged join is no
  * longer the one tagged (another rule rewrote it, as `SemiJoinReduction`
  * does when it puts `LeftSemi` joins into it), or when an output column is
  * not a non-null bigint of one leaf.
  */
object ManyToManyJoin extends SparkStrategy {
  def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case Project(list, j: Join) if list.forall(_.isInstanceOf[AttributeReference]) =>
      exec(j, list.map(_.toAttribute)).toSeq
    case j: Join => exec(j, j.output).toSeq
    case _       => Nil
  }

  private def exec(j: Join, output: Seq[Attribute]): Option[SparkPlan] =
    j.getTagValue(ChainTag).filter(_.declined.isEmpty).flatMap { chain =>
      val (driver, joins) = ManyToManyReorder.spine(j)
      // The chain as tagged runs its joins in the chosen order.
      val same = joins.length == chain.order.length &&
        joins.zip(chain.order).forall { case (jj, l) => jj.condition.get.semanticEquals(chain.conds(l - 1)) }
      // Node i's leaf: the driver, or the right side of the join that brings it in.
      lazy val leaves =
        (0 until chain.tree.n).map(i => if (i == 0) driver else joins(chain.order.indexOf(i)).right)
      val readable = same && output.forall { a =>
        ManyToManyReorder.owner(leaves.map(_.output), a)
          .exists { case (_, b) => b.dataType == LongType && !b.nullable }
      }
      if (readable) Some(ManyToManyJoinExec(chain, output, leaves.map(planLater))) else None
    }
}

/** A join chain run by the engine (`Engine.flat`) under the approach and in
  * the order `chain` holds: job 1 collects the build sides from
  * `children(1…n−1)`, and the pipeline runs over each partition of
  * `children(0)`, the driver, with no shuffle. `children(i)` is node i of
  * `chain.tree`.
  */
final case class ManyToManyJoinExec(chain: Chain, output: Seq[Attribute], children: Seq[SparkPlan])
    extends SparkPlan {

  override protected def doExecute(): RDD[InternalRow] = {
    val t    = chain.tree
    val outs = children.map(_.output).toIndexedSeq
    def ordinal(i: Int, a: Attribute): Int = outs(i).indexWhere(_.exprId == a.exprId)
    val edges = (1 until t.n).map(i => ManyToManyReorder.edge(outs, chain.conds(i - 1), i).get)
    Engine.flat(t, chain.order, chain.approach, Engine.Inputs(children.map(_.execute()).toIndexedSeq,
      parentCol = -1 +: edges.map { case (p, pa, _) => ordinal(p, pa) },
      childCol  = -1 +: (1 until t.n).map(i => ordinal(i, edges(i - 1)._3)),
      out       = output.map { a =>
        val (i, _) = ManyToManyReorder.owner(outs, a).get
        (i, ordinal(i, a))
      }.toIndexedSeq))
  }

  override def simpleString(maxFields: Int): String =
    s"ManyToManyJoin ${chain.approach.name} [${output.mkString(", ")}] $chain"

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[SparkPlan]): SparkPlan =
    copy(children = newChildren)
}
