package repro.engine

import repro.SparkSpec
import repro.core.{EdgeStats, JoinTree}
import repro.data.TreeQuery

/** Executor semantics on a hand-crafted dataset where every probe count is
  * known exactly (see the derivation in the comments).
  *
  * Shape: driver R0(k0 ∈ 1..4); R1 joins k0 (matches: k0=1 → {11,12},
  * k0=2 → {13}); R2 joins R1.k1 (matches: 11 → {21}, 13 → {22,23});
  * R3 joins k0 (matches: 1 → {31}, 3 → {32}).
  */
class ExecutorCraftedSpec extends SparkSpec {

  private lazy val q: TreeQuery = {
    import spark.implicits._
    val r0 = Seq(1L, 2L, 3L, 4L).toDF("k0")
    val r1 = Seq((11L, 1L), (12L, 1L), (13L, 2L)).toDF("k1", "fk1")
    val r2 = Seq((21L, 11L), (22L, 13L), (23L, 13L)).toDF("k2", "fk2")
    val r3 = Seq((31L, 1L), (32L, 3L)).toDF("k3", "fk3")
    val tree = JoinTree(Seq((0, 0.5, 1.5), (1, 2.0 / 3, 1.5), (0, 0.5, 1.0)),
      driverSize = 4)
    TreeQuery(tree, IndexedSeq(r0, r1, r2, r3),
      parentCol = IndexedSeq("", "k0", "k1", "k0"),
      childCol  = IndexedSeq("", "fk1", "fk2", "fk3"),
      keyCol    = IndexedSeq("k0", "k1", "k2", "k3"))
  }

  test("STD probes, order [1,2,3]: 4, 3, 3; one output row") {
    val r = StdExecutor.run(q, Seq(1, 2, 3))
    assert(r.log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 3L))
    assert(r.log.outRows == 1L)
  }

  test("STD probes, order [1,3,2]: 4, 3, 2") {
    val r = StdExecutor.run(q, Seq(1, 3, 2))
    assert(r.log.htProbes == Map(1 -> 4L, 3 -> 3L, 2 -> 2L))
    assert(r.log.outRows == 1L)
  }

  test("COM avoids the redundant probe into R3: 4, 3, 2") {
    val r = ComExecutor.run(q, Seq(1, 2, 3))
    assert(r.log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 2L))
    assert(r.log.outRows == 1L)
  }

  test("COM probes, order [1,3,2]: 4, 2, 2") {
    val r = ComExecutor.run(q, Seq(1, 3, 2))
    assert(r.log.htProbes == Map(1 -> 4L, 3 -> 2L, 2 -> 2L))
    assert(r.log.outRows == 1L)
  }

  test("BVP+STD prunes the driver before the first probe: 1, 1, 1") {
    val r = StdExecutor.run(q, Seq(1, 2, 3), bvp = true)
    assert(r.log.htProbes == Map(1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(r.log.bvProbes == 4L + 2L + 2L) // F1 on 4 rows, F3 on 2, F2 on 2
    assert(r.log.outRows == 1L)
  }

  test("BVP+COM prunes every vector at creation") {
    val r = ComExecutor.run(q, Seq(1, 2, 3), bvp = true)
    assert(r.log.htProbes.values.forall(_ <= 2L))
    assert(r.log.outRows == 1L)
  }

  test("SJ reduces the driver fully before phase 2") {
    val r = SjExecutor.run(q, Seq(1, 2, 3), useCom = false)
    // phase 1: R1 ⋉ R2 (3 probes), driver ⋉ R1' (4) then ⋉ R3 (…) — order
    // of the two driver children depends on adjusted m'; totals only:
    assert(r.log.semiProbes > 0)
    // phase 2 driver = {1}: probes are all 1
    assert(r.log.htProbes.values.forall(_ == 1L))
    assert(r.log.outRows == 1L)
  }

  test("SJ+COM produces the same single result row") {
    val r = SjExecutor.run(q, Seq(1, 2, 3), useCom = true)
    assert(r.log.outRows == 1L)
    assert(r.log.semiProbes > 0)
  }

  test("all six approaches return exactly the same flat result") {
    import repro.core.Approach
    val expected = bag(StdExecutor.run(q, Seq(1, 2, 3)).flat.get)
    for (a <- Approach.all) {
      val got = bag(Engine.run(q, Seq(1, 2, 3), a).flat.get)
      assert(got == expected, a.name)
    }
  }

  test("flat result matches the DuckDB oracle") {
    val r = StdExecutor.run(q, Seq(1, 2, 3))
    repro.Oracle.assertEquivalent(r.flat.get, q.flatSql, q.oracleTables: _*)
  }

  test("COM factorized output counts alive entries") {
    val r = ComExecutor.run(q, Seq(1, 2, 3), flatOutput = false)
    // alive entries: driver {1}, R1 {11}, R2 {21}, R3 {31} → 4 entries
    assert(r.flat.isEmpty)
    assert(r.log.outRows == 4L)
  }

  test("key-set filters run no grouping aggregate, counted or not") {
    import org.apache.spark.sql.catalyst.plans.LeftSemi
    import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
    import repro.core.Approach
    for (a <- Approach.all; counting <- Seq(true, false)) {
      val (r, plans) = recordPlans(Engine.run(q, Seq(1, 2, 3), a, counting))
      assert(r.log.outRows == 1L, s"${a.name} counting=$counting")
      // Every approach but STD filters by key sets; the recorder must see them.
      val semis = plans.flatMap(_.collect { case j: Join if j.joinType == LeftSemi => j })
      assert(a == Approach.Std || semis.nonEmpty, s"${a.name} counting=$counting: no semi-join recorded")
      val grouped = plans.flatMap(_.collectWithSubqueries {
        case g: Aggregate if g.groupingExpressions.nonEmpty => g
      })
      assert(grouped.isEmpty, s"${a.name} counting=$counting: ${grouped.mkString("\n")}")
    }
  }

  test("counting=false skips probe accounting but still answers") {
    val r = ComExecutor.run(q, Seq(1, 2, 3), counting = false)
    assert(r.log.htProbes.isEmpty)
    assert(r.log.outRows == 1L)
  }
}
