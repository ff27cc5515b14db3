package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Approach
import repro.engine.Engine
import repro.exp.T3Ce

class GraphDataSpec extends SparkSpec {

  private lazy val cfg = GraphData.Config("tiny", vertices = 60, edges = 300, alpha = 1.0)
  private lazy val e   = GraphData.edges(spark, cfg, seed = 2L)

  test("edge table has the configured cardinality") {
    assert(e.count() == 300)
  }

  test("vertex ids stay inside the domain") {
    val r = e.agg(min("src"), max("src"), min("dst"), max("dst")).collect()(0)
    assert(r.getLong(0) >= 1 && r.getLong(1) <= 60)
    assert(r.getLong(2) >= 1 && r.getLong(3) <= 60)
  }

  test("edge ids are unique") {
    assert(e.select("eid").distinct().count() == 300)
  }

  test("zipf destinations are skewed: hubs exist") {
    val degs = e.groupBy("dst").count().orderBy(desc("count"))
      .limit(1).collect()(0).getLong(1)
    // uniform expectation is 5 per vertex; zipf should concentrate far more
    assert(degs > 15, s"max in-degree $degs")
  }

  test("generation is deterministic in the seed") {
    val e2 = GraphData.edges(spark, cfg, seed = 2L)
    val a  = e.agg(sum(col("src") * col("dst"))).collect()(0).getLong(0)
    val b  = e2.agg(sum(col("src") * col("dst"))).collect()(0).getLong(0)
    assert(a == b)
  }

  test("aliasQuery builds the requested shape with naive statistics") {
    val q = GraphData.aliasQuery(e, Seq(-1, 0, 1))
    assert(q.tree.n == 3)
    assert(q.tree.parent.toSeq == Seq(-1, 0, 1))
    assert(q.tree.stats(1).m > 0 && q.tree.stats(1).m <= 1.0)
    assert(q.tree.driverSize == 300.0)
  }

  test("exactOut matches the executed flat count (path3)") {
    val parents   = Seq(-1, 0, 1)
    val collected = e.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
    val predicted = T3Ce.exactOut(collected, parents)
    val q   = GraphData.aliasQuery(e, parents)
    val res = Engine.run(q, Seq(1, 2), Approach.Std, counting = false)
    assert(res.log.outRows.toDouble == predicted)
  }

  test("exactOut matches the executed flat count (star3)") {
    val parents   = Seq(-1, 0, 0)
    val collected = e.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
    val predicted = T3Ce.exactOut(collected, parents)
    val q   = GraphData.aliasQuery(e, parents)
    val res = Engine.run(q, Seq(1, 2), Approach.Std, counting = false)
    assert(res.log.outRows.toDouble == predicted)
  }

  test("all five dataset configs generate") {
    for (c <- GraphData.datasets) {
      val scaled = c.copy(vertices = c.vertices / 20, edges = c.edges / 20)
      assert(GraphData.edges(spark, scaled).count() == scaled.edges)
    }
  }
}
