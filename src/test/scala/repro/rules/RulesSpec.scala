package repro.rules

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.LeftSemi
import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{EdgeStats, JoinTree}
import repro.data.TreeData

/** Catalyst integration: the semi-join reduction rule and the
  * many-to-many reorder rule, injected via extraOptimizations, must change
  * plans as intended and never change results (DuckDB oracle).
  */
class RulesSpec extends SparkSpec {

  override def afterAll(): Unit = {
    spark.experimental.extraOptimizations = Nil
    super.afterAll()
  }

  private lazy val tree = JoinTree(
    Seq((0, 0.3, 3.0), (0, 0.6, 1.5), (1, 0.5, 2.0)), driverSize = 1500)
  private lazy val q = TreeData.generate(spark, tree, seed = 41L)

  private def chain(order: Seq[Int]): DataFrame = {
    var cur = q.rels(0)
    for (l <- order)
      cur = cur.join(q.rels(l), col(q.parentCol(l)) === col(q.childCol(l)))
    cur.select(q.outputCols.map(col): _*)
  }

  private def withRules[A](rules: org.apache.spark.sql.catalyst.rules.Rule[
      org.apache.spark.sql.catalyst.plans.logical.LogicalPlan]*)(body: => A): A = {
    spark.experimental.extraOptimizations = rules
    try body finally spark.experimental.extraOptimizations = Nil
  }

  private def countSemiJoins(df: DataFrame): Int =
    df.queryExecution.optimizedPlan.collect {
      case j: Join if j.joinType == LeftSemi => j
    }.size

  test("SemiJoinReduction injects LeftSemi joins under every inner join") {
    withRules(SemiJoinReduction) {
      val df = chain(Seq(1, 2, 3))
      assert(countSemiJoins(df) >= 3)
    }
  }

  test("SemiJoinReduction does not fire without injection") {
    assert(countSemiJoins(chain(Seq(1, 2, 3))) == 0)
  }

  test("SemiJoinReduction preserves results exactly (oracle)") {
    withRules(SemiJoinReduction) {
      repro.Oracle.assertEquivalent(chain(Seq(1, 2, 3)), q.flatSql, q.oracleTables: _*)
    }
  }

  test("SemiJoinReduction is idempotent across optimizer fixpoint iterations") {
    withRules(SemiJoinReduction) {
      val df  = chain(Seq(1, 2, 3))
      val p1  = df.queryExecution.optimizedPlan
      val p2  = SemiJoinReduction(p1)
      assert(p1.canonicalized == p2.canonicalized)
    }
  }

  private def statsOf(pc: String, cc: String): Option[EdgeStats] = {
    // Column-name pair → edge: childCol is unique per node ("fk<i>").
    val i = cc.stripPrefix("fk").toIntOption
    i.filter(x => x >= 1 && x < tree.n).map(tree.stats(_))
  }

  test("ManyToManyReorder rewrites a bad order into the optimal one") {
    val rule = ManyToManyReorder(statsOf)
    withRules(rule) {
      // Order [2, 1, 3] is given; the optimal COM order joins 1 first
      // (m=0.3 < m=0.6 survival) — the rule must change the join sequence.
      val df = chain(Seq(2, 1, 3))
      val joins = df.queryExecution.optimizedPlan.collect {
        case j: Join if j.joinType.sql == "INNER" => j
      }
      assert(joins.nonEmpty)
      // The reordered chain is tagged; verify results are untouched.
      repro.Oracle.assertEquivalent(df, q.flatSql, q.oracleTables: _*)
    }
  }

  test("ManyToManyReorder picks the order Algorithm 1 picks") {
    val rule = ManyToManyReorder(statsOf)
    withRules(rule) {
      val df = chain(Seq(2, 1, 3))
      // Optimal COM order for these stats starts with node 1 (the m=0.3
      // branch), so the innermost join's right leaf must output fk1.
      val innermost = df.queryExecution.optimizedPlan.collect {
        case j: Join if j.joinType.sql == "INNER" &&
          !j.left.isInstanceOf[Join] && !j.left.exists(_.isInstanceOf[Join]) => j
      }
      assert(innermost.nonEmpty)
      val rightCols = innermost.head.right.output.map(_.name)
      assert(rightCols.contains("fk1"), s"innermost right side: $rightCols")
    }
  }

  test("ManyToManyReorder leaves unknown-stats chains untouched") {
    val rule = ManyToManyReorder((_, _) => None)
    withRules(rule) {
      repro.Oracle.assertEquivalent(chain(Seq(2, 1, 3)), q.flatSql, q.oracleTables: _*)
    }
  }

  test("ManyToManyReorder composes with SemiJoinReduction") {
    withRules(ManyToManyReorder(statsOf), SemiJoinReduction) {
      val df = chain(Seq(2, 1, 3))
      assert(countSemiJoins(df) >= 1)
      repro.Oracle.assertEquivalent(df, q.flatSql, q.oracleTables: _*)
    }
  }
}
