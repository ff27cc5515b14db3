package repro.rules

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.plans.{Inner, LeftSemi}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan, SubqueryAlias}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.functions.{col, when}
import repro.SparkSpec
import repro.core.{Approach, EdgeStats, JoinTree, Optimizer}
import repro.data.{GraphData, TreeData, TreeQuery}
import repro.rules.ManyToManyReorder.{Chain, ChainTag}

/** Catalyst integration: the semi-join reduction rule and the
  * many-to-many reorder rule, injected via extraOptimizations, must change
  * plans as intended and never change results (DuckDB oracle).
  */
class RulesSpec extends SparkSpec {

  override def afterAll(): Unit = {
    spark.experimental.extraOptimizations = Nil
    spark.experimental.extraStrategies = Nil
    super.afterAll()
  }

  private lazy val tree = JoinTree(
    Seq((0, 0.3, 3.0), (0, 0.6, 1.5), (1, 0.5, 2.0)), driverSize = 1500)
  private lazy val q = TreeData.generate(spark, tree, seed = 41L)

  /** The equi-join condition attaching relation l to its parent. */
  private def cond(l: Int): Column = col(q.parentCol(l)) === col(q.childCol(l))

  private def chain(order: Seq[Int], on: Int => Column = cond): DataFrame = {
    var cur = q.rels(0)
    for (l <- order)
      cur = cur.join(q.rels(l), on(l))
    cur.select(q.outputCols.map(col): _*)
  }

  private def withRules[A](rules: Rule[LogicalPlan]*)(body: => A): A = {
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

  // Column-name pair → edge: childCol is unique per node ("fk<i>").
  private val statsOf: (String, String) => Option[EdgeStats] = (_, cc) =>
    cc.stripPrefix("fk").toIntOption.filter(x => x >= 1 && x < tree.n).map(tree.stats(_))

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

  /** The relations whose key columns `p` outputs. */
  private def relsOf(p: LogicalPlan): Set[Int] =
    q.keyCol.indices.filter(i => p.output.exists(_.name == q.keyCol(i))).toSet

  /** The relations (as `rels` tells them) each inner join of `df`'s
    * optimized plan brings in on its right side, in execution (post-)
    * order: for a left-deep chain, its join order after the driver.
    */
  private def joinOrder(df: DataFrame, rels: LogicalPlan => Set[Int] = relsOf): Seq[Set[Int]] = {
    def joins(p: LogicalPlan): Seq[Set[Int]] = p match {
      case j: Join if j.joinType == Inner => joins(j.left) ++ joins(j.right) :+ rels(j.right)
      case other                          => other.children.flatMap(joins)
    }
    joins(df.queryExecution.optimizedPlan)
  }

  /** Under `rule`, `df` keeps the optimized plan Spark builds without it,
    * its joins stay in the `written` order, and its result matches the
    * oracle.
    */
  private def assertUntouched(df: => DataFrame, rule: ManyToManyReorder,
                              written: Seq[Set[Int]]): Unit = {
    val plain = df.queryExecution.optimizedPlan
    withRules(rule) {
      val d = df
      assert(d.queryExecution.optimizedPlan.canonicalized == plain.canonicalized)
      assert(joinOrder(d) == written)
      repro.Oracle.assertEquivalent(d, q.flatSql, q.oracleTables: _*)
    }
  }

  private val written = Seq(Set(2), Set(1), Set(3))

  test("ManyToManyReorder leaves unknown-stats chains untouched") {
    assertUntouched(chain(Seq(2, 1, 3)), ManyToManyReorder((_, _) => None), written)
  }

  test("ManyToManyReorder reorders the known prefix of a chain whose last edge has no statistics") {
    // The rule declines the whole chain, since R3's edge is unknown, but
    // then visits the joins below it: R0 ⋈ R2 ⋈ R1 has known statistics,
    // and Algorithm 1 joins R1 (m = 0.3) before R2 (m = 0.6).
    val lastUnknown: (String, String) => Option[EdgeStats] =
      (pc, cc) => if (cc == q.childCol(3)) None else statsOf(pc, cc)
    withRules(ManyToManyReorder(lastUnknown)) {
      val df = chain(Seq(2, 1, 3))
      assert(joinOrder(df) == Seq(Set(1), Set(2), Set(3)))
      repro.Oracle.assertEquivalent(df, q.flatSql, q.oracleTables: _*)
    }
  }

  test("ManyToManyReorder leaves a chain with a non-equi join condition untouched") {
    // The middle join's condition is an equality AND a (here redundant)
    // inequality, so no EqualTo chain of three or more relations is left.
    val nonEqui = (l: Int) =>
      if (l == 1) cond(l) && col(q.parentCol(l)) <= col(q.childCol(l)) else cond(l)
    assertUntouched(chain(Seq(2, 1, 3), nonEqui), ManyToManyReorder(statsOf), written)
  }

  test("ManyToManyReorder leaves a bushy join untouched") {
    // (R0 ⋈ R2) ⋈ (R1 ⋈ R3): the top join's right side is itself a join.
    def bushy = q.rels(0).join(q.rels(2), cond(2))
      .join(q.rels(1).join(q.rels(3), cond(3)), cond(1))
      .select(q.outputCols.map(col): _*)
    assertUntouched(bushy, ManyToManyReorder(statsOf), Seq(Set(2), Set(3), Set(1, 3)))
  }

  test("ManyToManyReorder is idempotent: its own output is left as it is") {
    val rule = ManyToManyReorder(statsOf)
    val chosen = withRules(rule) {
      val df = chain(Seq(2, 1, 3))
      val p1 = df.queryExecution.optimizedPlan
      assert(joinOrder(df) != written, "the rule must reorder this chain")
      assert(rule(p1).canonicalized == p1.canonicalized)
      joinOrder(df)
    }
    // Written in the chosen order, the chain is already optimal.
    assertUntouched(chain(chosen.map(_.head)), rule, chosen)
  }

  test("ManyToManyReorder on a self-join chain of aliases with repeated column names") {
    // A centred path over aliases of one edge table E(eid, src, dst), as
    // GraphData's queries are: e1 and then e3 follow e0's out-edges
    // (dst = src), e2 precedes e0 (e0.src = e2.dst). Every alias has the
    // same column names, so the statistics keyed by column pair are one per
    // direction: out-edges with m = 0.9, the in-edge with m = 0.1.
    val e = GraphData.edges(spark, GraphData.Config("guard", 40, 160, 0.9), seed = 5L)
    val edges = Seq((0, "dst", 1, "src"), (1, "dst", 3, "src"), (0, "src", 2, "dst"))
    def selfJoin(e: DataFrame) = edges.foldLeft(e.as("e0")) { case (df, (p, pc, c, cc)) =>
      df.join(e.as(s"e$c"), col(s"e$p.$pc") === col(s"e$c.$cc"))
    }.select((0 to 3).map(i => col(s"e$i.eid").as(s"k$i")): _*)
    val sql = "SELECT " + (0 to 3).map(i => s"e$i.eid AS k$i").mkString(", ") +
      " FROM " + (0 to 3).map(i => s"e e$i").mkString(", ") +
      " WHERE " + edges.map { case (p, pc, c, cc) => s"e$p.$pc = e$c.$cc" }.mkString(" AND ")
    val byPair: (String, String) => Option[EdgeStats] = {
      case ("dst", "src") => Some(EdgeStats(0.9, 4.0))
      case ("src", "dst") => Some(EdgeStats(0.1, 4.0))
      case _              => None
    }
    // The chain's leaves in written order are e0, e1, e3, e2. Algorithm 1
    // on that tree joins the in-edge (leaf 3, alias e2) first.
    val t     = JoinTree(Seq((0, 0.9, 4.0), (1, 0.9, 4.0), (0, 0.1, 4.0)))
    val alias = Seq(0, 1, 3, 2)
    assert(Optimizer.exhaustiveCom(t)._1.head == 3)
    // E's columns are non-null bigints, so the engine operator runs the
    // chain in the COM order. Over a copy of E whose src is nullable, the
    // rule declines the chain and Spark runs it in the STD order.
    val nullable = e.withColumn("src", when(col("src") > 0, col("src")))
    for ((table, runs) <- Seq(e -> true, nullable -> false)) withClue(s"engine runs: $runs: ") {
      withRules(ManyToManyReorder(byPair)) {
        val df    = selfJoin(table)
        val c     = chainOf(df)
        val order = if (runs) Optimizer.exhaustiveCom(t)._1 else Optimizer.exhaustiveStd(t)._1
        assert(c.declined.isEmpty == runs && c.order == order)
        assert(c.declined.forall(_.contains("src is nullable bigint")))
        assert(operators(df).size == (if (runs) 1 else 0))
        // Each alias's `eid` attribute tells its leaf in the optimized plan.
        val eids = (0 to 3).map(i => df.queryExecution.analyzed.collectFirst {
          case a: SubqueryAlias if a.alias == s"e$i" => a.output.find(_.name == "eid").get.exprId
        }.get)
        def aliasesOf(p: LogicalPlan): Set[Int] =
          eids.indices.filter(i => p.output.exists(_.exprId == eids(i))).toSet
        assert(joinOrder(df, aliasesOf) == order.map(l => Set(alias(l))))
        repro.Oracle.assertEquivalent(df, sql, "e" -> table)
      }
    }
  }

  test("ManyToManyReorder composes with SemiJoinReduction") {
    withRules(ManyToManyReorder(statsOf), SemiJoinReduction) {
      val df = chain(Seq(2, 1, 3))
      assert(countSemiJoins(df) >= 1)
      repro.Oracle.assertEquivalent(df, q.flatSql, q.oracleTables: _*)
    }
  }

  /** `q`'s relations joined in node order, each on its edge, with the
    * columns `cols`.
    */
  private def inNodeOrder(q: TreeQuery, cols: Seq[String]): DataFrame = {
    var cur = q.rels(0)
    for (l <- 1 until q.tree.n)
      cur = cur.join(q.rels(l), col(q.parentCol(l)) === col(q.childCol(l)))
    cur.select(cols.map(col): _*)
  }
  /** The rule with `q.tree`'s statistics, keyed by edge. */
  private def ruleOf(q: TreeQuery): ManyToManyReorder = ManyToManyReorder { (pc, cc) =>
    (1 until q.tree.n).find(i => q.parentCol(i) == pc && q.childCol(i) == cc).map(q.tree.stats(_))
  }

  /** The decision on the chain's top join in `df`'s optimized plan. */
  private def chainOf(df: DataFrame): Chain =
    df.queryExecution.optimizedPlan.collectFirst { case j: Join => j.getTagValue(ChainTag) }.flatten.get

  private def operators(df: DataFrame): Seq[ManyToManyJoinExec] =
    df.queryExecution.sparkPlan.collect { case e: ManyToManyJoinExec => e }

  test("ManyToManyReorder runs perfbench's path4 chain as one engine operator, in at most 4 jobs") {
    // The centred path the benchmark runs: R1 and R3 join the driver, R2
    // joins R1; every key selected, counted and collected.
    val t  = JoinTree.centeredPath(4,
      Seq(EdgeStats(0.1, 2.0), EdgeStats(0.2, 3.0), EdgeStats(0.15, 4.0)), driverSize = 3000)
    val pq = TreeData.generate(spark, t, seed = 7L)
    withRules(ruleOf(pq)) {
      val df = inNodeOrder(pq, pq.outputCols)
      val (_, optimizing) = recordJobs(df.queryExecution.optimizedPlan)
      assert(optimizing.isEmpty, "the optimizer runs no Spark job")

      // The decision explains itself: tree and statistics, both orders
      // with their costs, and the approach CostModel ranks cheapest.
      val c     = chainOf(df)
      val order = Optimizer.exhaustiveCom(c.tree)._1
      assert(c.tree.parent.sameElements(t.parent) && c.tree.stats.sameElements(t.stats))
      assert(c.written == List(1, 2, 3) && c.order == order && c.declined.isEmpty)
      assert(c.approach == Approach.all.minBy(Chain.cost(c.tree, order, _)))
      assert(c.toString.contains(f"written [1,2,3] cost ${c.cost(c.written)}%.4g"))
      assert(c.toString.contains(f"chosen [${order.mkString(",")}] cost ${c.cost(order)}%.4g"))
      assert(c.toString.contains(s"approach ${c.approach.name}"))
      val ops = operators(df)
      assert(ops.size == 1 && ops.head.simpleString(10).contains(c.toString))
      // Every leaf, the driver too, reads only its key and join columns.
      for (i <- 0 until t.n) {
        val needed = (1 until t.n).filter(t.parent(_) == i).map(pq.parentCol).toSet ++
          Set(pq.keyCol(i)) ++ (if (i > 0) Set(pq.childCol(i)) else Set.empty)
        assert(ops.head.children(i).output.map(_.name).toSet == needed, s"leaf $i")
      }

      val (rows, counting) = recordJobs(df.count())
      val (got, collecting) = recordJobs(bag(df))
      assert(counting.size <= 4 && collecting.size <= 4, s"count: $counting, collect: $collecting")
      assert(rows == got.values.sum && rows > 0)
      repro.Oracle.assertEquivalent(df, pq.flatSql, pq.oracleTables: _*)
    }
  }

  test("ManyToManyReorder leaves a chain that outputs an int column to Spark, in the STD order") {
    // A star on which COM joins R1 first (m = 0.2 ends most driver rows)
    // and STD joins it last (its selectivity, 2, is the highest).
    val t  = JoinTree.star(4, Seq(EdgeStats(0.2, 10.0), EdgeStats(0.9, 1.0), EdgeStats(0.5, 1.5)), 300)
    val sq = TreeData.generate(spark, t, seed = 11L)
    val std = Optimizer.exhaustiveStd(t)._1
    assert(std != Optimizer.exhaustiveCom(t)._1)
    withRules(ruleOf(sq)) {
      val df = inNodeOrder(sq, sq.outputCols :+ "p1")
      val c  = chainOf(df)
      assert(c.declined.exists(_.contains("p1")) && c.approach == Approach.Std)
      assert(c.order == std && c.toString.contains("STD on Spark"))
      assert(joinOrder(df, p => (1 to 3).filter(i => p.output.exists(_.name == sq.keyCol(i))).toSet) ==
        std.map(Set(_)))
      assert(operators(df).isEmpty)
      val sql = sq.flatSql.replace("SELECT ", "SELECT t1.p1 AS p1, ")
      repro.Oracle.assertEquivalent(df, sql, sq.oracleTables: _*)
    }
  }
}
