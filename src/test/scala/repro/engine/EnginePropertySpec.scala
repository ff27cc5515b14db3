package repro.engine

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.col
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import scala.util.Random
import repro.SparkSpec
import repro.core.{Approach, EdgeStats, JoinTree, Optimizer}
import repro.data.{GraphData, TreeData, TreeQuery}
import repro.rules.{ManyToManyJoinExec, ManyToManyReorder}

/** Every approach against the exact reference on random queries: deep
  * paths, stars and snowflakes of up to 8 relations with match
  * probabilities 0, 1 or in between and fanouts 1 or above, some with one
  * relation emptied, and small `GraphData` self-joins, whose join columns
  * repeat. Each query also runs as a DataFrame join chain under
  * `ManyToManyReorder`, which hands a chain of three or more relations to
  * the engine as one operator. Samples are drawn with a fixed seed, as in
  * `CorePropertiesSpec`.
  */
class EnginePropertySpec extends SparkSpec {

  private def samples[A](g: Gen[A], n: Int): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(4711L + i)))

  private val statGen: Gen[EdgeStats] = for {
    m  <- Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.const(1.0), 6 -> Gen.choose(0.3, 0.8))
    fo <- Gen.frequency(1 -> Gen.const(1.0), 1 -> Gen.choose(1.2, 3.0))
  } yield EdgeStats(m, fo)

  private val treeGen: Gen[JoinTree] = for {
    driver <- Gen.choose(4, 30)
    shape  <- Gen.oneOf("path", "star", "snowflake")
    n      <- Gen.choose(2, 8)
    arms   <- Gen.choose(1, 3)
    sub    <- Gen.choose(1, (7 / arms) - 1)
    stats  <- Gen.listOfN(7, statGen)
  } yield shape match {
    case "path" => JoinTree((1 until n).map(i => (i - 1, stats(i - 1).m, stats(i - 1).fo)), driver.toDouble)
    case "star" => JoinTree.star(n, stats.take(n - 1), driver.toDouble)
    case _      => JoinTree.snowflake(arms, sub, stats.take(arms * (1 + sub)), driver.toDouble)
  }

  /** A generated query, one relation emptied or none, and a random order. */
  private val caseGen: Gen[(JoinTree, Long, Option[Int], Long)] = for {
    tree  <- treeGen
    seed  <- Gen.choose(0L, 1000L)
    empty <- Gen.frequency(4 -> Gen.const(None), 1 -> Gen.choose(1, tree.n - 1).map(Some(_)))
    ord   <- Gen.choose(0L, 1000L)
  } yield (tree, seed, empty, ord)

  private def emptied(q: TreeQuery, i: Int): TreeQuery =
    q.copy(rels = q.rels.updated(i,
      spark.createDataFrame(spark.sparkContext.emptyRDD[Row], q.rels(i).schema)))

  /** Every approach on `q` in `order`, flat and (COM family) factorized,
    * against the reference: equal probe logs and an equal flat bag; and
    * `q`'s join chain under `ManyToManyReorder`, planned as the engine
    * operator if `engineRuns`: an equal bag.
    */
  private def check(q: TreeQuery, order: Seq[Int], engineRuns: Boolean): Unit = {
    val ref = new ExactReference(q)
    for (a <- Approach.all; flat <- Seq(true, false) if flat || a.usesCom)
      withClue(s"${a.name} flat=$flat order=$order tree=${q.tree}: ") {
        val r = Engine.run(q, order, a, counting = true, flatOutput = flat)
        assert(r.log == ref.log(order, a, flat))
        if (flat) assert(bag(r.flat.get) == ref.bag)
      }
    withClue(s"ManyToManyReorder tree=${q.tree}: ") {
      var chain = q.rels(0)
      for (l <- 1 until q.tree.n)
        chain = chain.join(q.rels(l), col(q.parentCol(l)) === col(q.childCol(l)))
      val df = chain.select(q.outputCols.map(col): _*)
      spark.experimental.extraOptimizations = Seq(ManyToManyReorder { (pc, cc) =>
        (1 until q.tree.n).find(i => q.parentCol(i) == pc && q.childCol(i) == cc).map(q.tree.stats(_))
      })
      try {
        val ops = df.queryExecution.sparkPlan.collect { case e: ManyToManyJoinExec => e }
        assert(ops.size == (if (engineRuns) 1 else 0))
        assert(bag(df) == ref.bag)
      } finally spark.experimental.extraOptimizations = Nil
    }
  }

  override def afterAll(): Unit = {
    spark.experimental.extraStrategies = Nil
    super.afterAll()
  }

  test("property: every approach's probes and flat bag equal the exact reference") {
    for ((tree, seed, empty, ord) <- samples(caseGen, 24)) {
      val q = TreeData.generate(spark, tree, seed)
      check(empty.fold(q)(emptied(q, _)), Optimizer.randomOrder(tree, new Random(ord)), engineRuns = tree.n >= 3)
    }
    val e = GraphData.edges(spark, GraphData.Config("g", 20, 60, 1.0), seed = 3L)
    for (parents <- Seq(Seq(-1, 0, 1, 2), Seq(-1, 0, 0, 1))) {
      val q = GraphData.aliasQuery(e, parents)
      check(q, Optimizer.randomOrder(q.tree, new Random(parents.sum.toLong)), engineRuns = true)
    }
  }
}
