package repro.engine

import scala.util.Random
import repro.SparkSpec
import repro.core._
import repro.data.{GraphData, TreeData}

/** Executors on generated datasets: result equality across all six
  * approaches (and the DuckDB oracle), probe-count relations, and
  * agreement between measured probes and the cost model evaluated on
  * measured statistics.
  */
class ExecutorGeneratedSpec extends SparkSpec {

  test("all six approaches agree with each other and the oracle (snowflake)") {
    val tree = JoinTree.snowflake(2, 1,
      Seq(EdgeStats(0.5, 2), EdgeStats(0.6, 1.5), EdgeStats(0.4, 2.5), EdgeStats(0.7, 1.0)),
      driverSize = 800)
    val q     = TreeData.generate(spark, tree, seed = 21L)
    val order = Seq(1, 2, 3, 4)
    val expected = bag(Engine.run(q, order, Approach.Std).flat.get)
    for (a <- Approach.all) {
      val got = bag(Engine.run(q, order, a).flat.get)
      assert(got == expected, a.name)
    }
    repro.Oracle.assertEquivalent(Engine.run(q, order, Approach.Std).flat.get,
      q.flatSql, q.oracleTables: _*)
  }

  test("approaches agree across random orders (star)") {
    val rng  = new Random(31)
    val tree = JoinTree.star(5,
      Seq(EdgeStats(0.4, 2), EdgeStats(0.7, 1.5), EdgeStats(0.3, 3), EdgeStats(0.8, 1)),
      driverSize = 600)
    val q = TreeData.generate(spark, tree, seed = 22L)
    for (_ <- 0 until 2) {
      val order = Optimizer.randomOrder(tree, rng)
      val expected = Engine.run(q, order, Approach.Std).log.outRows
      for (a <- Seq(Approach.Com, Approach.BvpStd, Approach.SjCom)) {
        assert(Engine.run(q, order, a).log.outRows == expected, s"$a $order")
      }
    }
  }

  test("COM probes never exceed STD probes on real data") {
    val tree = JoinTree.centeredPath(5,
      Seq(EdgeStats(0.5, 3), EdgeStats(0.6, 2), EdgeStats(0.5, 3), EdgeStats(0.6, 2)),
      driverSize = 500)
    val q     = TreeData.generate(spark, tree, seed = 23L)
    val order = Optimizer.greedy(tree, Optimizer.Heuristic.SurvivalProb)
    val com = Engine.run(q, order, Approach.Com).log
    val std = Engine.run(q, order, Approach.Std).log
    for (l <- 1 until tree.n)
      assert(com.htProbes(l) <= std.htProbes(l), s"node $l")
  }

  test("COM-family probes equal the exact alive-entry count on random orders") {
    // A path of depth 4 beside a one-relation arm, a snowflake and a random
    // tree: random orders interleave the arms, so a node's entries must
    // often be filtered again after a node outside its subtree has joined.
    val rng   = new Random(43)
    val trees = Seq(
      JoinTree(Seq((0, 0.6, 2.0), (1, 0.5, 2.0), (2, 0.6, 1.5), (3, 0.5, 2.0), (0, 0.4, 2.0)),
        driverSize = 300),
      JoinTree.snowflake(3, 1,
        Seq(EdgeStats(0.5, 2), EdgeStats(0.6, 1.5), EdgeStats(0.4, 2.5), EdgeStats(0.7, 1.0),
            EdgeStats(0.6, 2), EdgeStats(0.5, 1.5)),
        driverSize = 300),
      JoinTree.random(7, (0.3, 0.8), (1.0, 2.5), rng, driverSize = 300))
    for ((tree, seed) <- trees.zip(Seq(28L, 29L, 30L))) {
      val q   = TreeData.generate(spark, tree, seed)
      val ref = new ExactReference(q)
      for (_ <- 0 until 2) {
        val order = Optimizer.randomOrder(tree, rng)
        for (a <- Seq(Approach.Com, Approach.BvpCom, Approach.SjCom)) withClue(s"${a.name} $order: ") {
          val r = Engine.run(q, order, a)
          assert(r.log == ref.log(order, a))
          assert(bag(r.flat.get) == ref.bag)
        }
      }
    }
  }

  test("measured STD probes match the cost model on measured stats (±10%)") {
    val tree = JoinTree.star(4,
      Seq(EdgeStats(0.5, 2), EdgeStats(0.4, 3), EdgeStats(0.6, 1.5)), driverSize = 3000)
    val q     = TreeData.generate(spark, tree, seed = 24L)
    val mt    = TreeData.measuredTree(q)
    val order = Seq(1, 2, 3)
    val log   = Engine.run(q, order, Approach.Std).log
    val model = CostModel.cost(mt, order, Approach.Std)
    assert(math.abs(log.totalHt - model.htProbes) / model.htProbes < 0.10,
      s"measured ${log.totalHt} model ${model.htProbes}")
  }

  test("measured COM probes match Eq.(1) on measured stats (±15%)") {
    val tree = JoinTree.runningExample(
      Seq(EdgeStats(0.4, 3), EdgeStats(0.6, 2), EdgeStats(0.3, 2),
          EdgeStats(0.7, 2), EdgeStats(0.5, 1.5)),
      driverSize = 3000)
    val q     = TreeData.generate(spark, tree, seed = 25L)
    val mt    = TreeData.measuredTree(q)
    val order = Seq(1, 2, 4, 3, 5)
    val log   = Engine.run(q, order, Approach.Com).log
    val model = CostModel.cost(mt, order, Approach.Com, flatOutput = false)
    assert(math.abs(log.totalHt - model.htProbes) / model.htProbes < 0.15,
      s"measured ${log.totalHt} model ${model.htProbes}")
  }

  test("SJ executor's phase-1 semi-join count matches the model (±15%)") {
    val tree = JoinTree.snowflake(2, 1,
      Seq(EdgeStats(0.5, 2), EdgeStats(0.4, 2), EdgeStats(0.6, 1.5), EdgeStats(0.3, 2)),
      driverSize = 3000)
    val q     = TreeData.generate(spark, tree, seed = 26L)
    val mt    = TreeData.measuredTree(q)
    val log   = Engine.run(q, Seq(1, 2, 3, 4), Approach.SjCom).log
    val model = SemiJoinModel.phase1Probes(mt)
    assert(math.abs(log.semiProbes - model) / model < 0.15,
      s"measured ${log.semiProbes} model $model")
  }

  test("BVP reduces hash probes when joins are selective") {
    val tree = JoinTree.star(4,
      Seq(EdgeStats(0.2, 2), EdgeStats(0.2, 2), EdgeStats(0.2, 2)), driverSize = 2000)
    val q     = TreeData.generate(spark, tree, seed = 27L)
    val order = Seq(1, 2, 3)
    val bvp = Engine.run(q, order, Approach.BvpStd).log
    val std = Engine.run(q, order, Approach.Std).log
    assert(bvp.totalHt < std.totalHt / 2)
    assert(bvp.outRows == std.outRows)
  }

  test("graph self-join queries: COM equals STD (CE substitute)") {
    // Join columns (an edge's src and dst) repeat, so every hash table and
    // key set here is built on duplicate keys. On a path with the driver at
    // one end, every evaluated node is on the path root → parent(l), so
    // each alive COM entry there is one tuple of STD's partial join: Eq. (1)
    // has no off-path survival factor, and each COM-family approach probes
    // (and filters) exactly as its STD counterpart does.
    val cfg = GraphData.Config("t", 80, 400, 0.9)
    val e   = GraphData.edges(spark, cfg, seed = 5L)
    val q   = GraphData.aliasQuery(e, Seq(-1, 0, 1))
    val std = Engine.run(q, Seq(1, 2), Approach.Std)
    for (a <- Approach.all) withClue(s"${a.name}: ") {
      val r = Engine.run(q, Seq(1, 2), a)
      assert(r.log.outRows == std.log.outRows)
      repro.Oracle.assertEquivalent(r.flat.get, q.flatSql, q.oracleTables: _*)
    }
    for ((com, flat) <- Seq(Approach.Com -> Approach.Std, Approach.BvpCom -> Approach.BvpStd,
                            Approach.SjCom -> Approach.SjStd)) withClue(s"${com.name}: ") {
      assert(Engine.run(q, Seq(1, 2), com).log == Engine.run(q, Seq(1, 2), flat).log)
    }
  }

  test("graph query result matches the oracle") {
    val cfg = GraphData.Config("t2", 60, 250, 1.0)
    val e   = GraphData.edges(spark, cfg, seed = 6L)
    val q   = GraphData.aliasQuery(e, Seq(-1, 0, 0))
    val r   = Engine.run(q, Seq(1, 2), Approach.Std)
    repro.Oracle.assertEquivalent(r.flat.get, q.flatSql, q.oracleTables: _*)
  }
}
