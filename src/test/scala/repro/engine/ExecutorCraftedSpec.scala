package repro.engine

import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.core.{Approach, JoinTree}
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
    val r = Engine.run(q, Seq(1, 2, 3), Approach.Std)
    assert(r.log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 3L))
    assert(r.log.outRows == 1L)
  }

  test("STD probes, order [1,3,2]: 4, 3, 2") {
    val r = Engine.run(q, Seq(1, 3, 2), Approach.Std)
    assert(r.log.htProbes == Map(1 -> 4L, 3 -> 3L, 2 -> 2L))
    assert(r.log.outRows == 1L)
  }

  test("COM avoids the redundant probe into R3: 4, 3, 2") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.Com)
    assert(r.log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 2L))
    assert(r.log.outRows == 1L)
  }

  test("COM probes, order [1,3,2]: 4, 2, 2") {
    val r = Engine.run(q, Seq(1, 3, 2), Approach.Com)
    assert(r.log.htProbes == Map(1 -> 4L, 3 -> 2L, 2 -> 2L))
    assert(r.log.outRows == 1L)
  }

  test("BVP+STD prunes the driver before the first probe: 1, 1, 1") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.BvpStd)
    assert(r.log.htProbes == Map(1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(r.log.bvProbes == 4L + 2L + 2L) // F1 on 4 rows, F3 on 2, F2 on 2
    assert(r.log.outRows == 1L)
  }

  test("BVP+COM prunes every vector at creation") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.BvpCom)
    // The bitvectors are BVP+STD's: F1 (R1 keys {1, 2}) and F3 ({1, 3})
    // leave driver entry 1, which probes R1 once; its matches {11, 12} pass
    // F2 ({11, 13}) as {11}, which probes R2 once; entry 1 probes R3 once.
    assert(r.log.htProbes == Map(1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(r.log.bvProbes == 4L + 2L + 2L) // F1 on 4 rows, F3 on 2, F2 on 2
    assert(r.log.outRows == 1L)
  }

  // SJ phase 1: R1 ⋉ R2 checks R1's 3 rows (R1' = {11, 13}). The driver's
  // children go by ascending adjusted m': R1's is 0.5 × (1 − (1 − 2/3)^1.5)
  // ≈ 0.404 (R1 is reduced to 2/3), below leaf R3's 0.5, so driver ⋉ R1'
  // checks 4 rows (leaving {1, 2}) and then ⋉ R3 checks 2 (leaving {1}):
  // 3 + 4 + 2 = 9 semi-join probes. Phase 2 starts from driver {1}, which
  // has one match in each relation: one probe per join.

  test("SJ reduces the driver fully before phase 2") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.SjStd)
    assert(r.log.semiProbes == 3L + 4L + 2L)
    assert(r.log.htProbes == Map(1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(r.log.outRows == 1L)
  }

  test("SJ+COM produces the same single result row") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.SjCom)
    assert(r.log.semiProbes == 3L + 4L + 2L)
    assert(r.log.htProbes == Map(1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(r.log.outRows == 1L)
  }

  test("all six approaches return exactly the same flat result") {
    val expected = bag(Engine.run(q, Seq(1, 2, 3), Approach.Std).flat.get)
    for (a <- Approach.all) {
      val got = bag(Engine.run(q, Seq(1, 2, 3), a).flat.get)
      assert(got == expected, a.name)
    }
  }

  test("flat result matches the DuckDB oracle") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.Std)
    repro.Oracle.assertEquivalent(r.flat.get, q.flatSql, q.oracleTables: _*)
  }

  test("COM factorized output counts alive entries") {
    val r = Engine.run(q, Seq(1, 2, 3), Approach.Com, flatOutput = false)
    // alive entries: driver {1}, R1 {11}, R2 {21}, R3 {31} → 4 entries
    assert(r.flat.isEmpty)
    assert(r.log.outRows == 4L)
  }

  test("key-set filters run no grouping aggregate, counted or not") {
    import org.apache.spark.sql.catalyst.plans.LeftSemi
    import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
    for (a <- Approach.all; counting <- Seq(true, false)) {
      val (r, plans) = recordPlans(Engine.run(q, Seq(1, 2, 3), a, counting))
      assert(r.log.outRows == 1L, s"${a.name} counting=$counting")
      // Every approach but STD filters by key sets; the recorder must see them.
      val semis = plans.flatMap(_.optimized.collect { case j: Join if j.joinType == LeftSemi => j })
      assert(a == Approach.Std || semis.nonEmpty, s"${a.name} counting=$counting: no semi-join recorded")
      val grouped = plans.flatMap(_.optimized.collectWithSubqueries {
        case g: Aggregate if g.groupingExpressions.nonEmpty => g
      })
      assert(grouped.isEmpty, s"${a.name} counting=$counting: ${grouped.mkString("\n")}")
    }
  }

  test("every action is one broadcast-hash-join pipeline: no shuffle, no sort") {
    import org.apache.spark.sql.catalyst.optimizer.BuildRight
    import org.apache.spark.sql.execution.SortExec
    import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
    import org.apache.spark.sql.execution.joins.{BaseJoinExec, BroadcastHashJoinExec}
    val runs = Approach.all.map((_, true)) ++ Approach.all.filter(_.usesCom).map((_, false))
    for ((a, flat) <- runs; counting <- Seq(true, false)) {
      val what = s"${a.name} flat=$flat counting=$counting"
      val (_, plans) = recordPlans(Engine.run(q, Seq(1, 2, 3), a, counting, flat))
      val ops = plans.flatMap(_.operators)
      assert(ops.exists(_.isInstanceOf[BroadcastHashJoinExec]), s"$what: no hash join recorded")
      for (op <- ops) op match {
        case j: BroadcastHashJoinExec => assert(j.buildSide == BuildRight, s"$what: $j")
        case _: BaseJoinExec | _: ShuffleExchangeExec | _: SortExec => fail(s"$what: $op")
        case _ =>
      }
    }
  }

  /** `q` with relation `i` emptied behind an RDD scan, which the optimizer
    * cannot see through (a local relation it would fold away): only
    * adaptive execution learns, from the broadcast it built, that a build
    * side is empty.
    */
  private def emptied(i: Int): TreeQuery =
    q.copy(rels = q.rels.updated(i,
      spark.createDataFrame(spark.sparkContext.emptyRDD[Row], q.rels(i).schema)))

  /** Every approach, counted or not, returns no rows, as the oracle does. */
  private def assertNoRows(e: TreeQuery): Unit =
    for (a <- Approach.all; counting <- Seq(true, false)) withClue(s"${a.name} counting=$counting: ") {
      val r = Engine.run(e, Seq(1, 2, 3), a, counting)
      assert(r.log.outRows == 0L)
      repro.Oracle.assertEquivalent(r.flat.get, e.flatSql, e.oracleTables: _*)
    }

  test("an empty leaf relation (R3): no rows, and the probes up to it") {
    val e = emptied(3)
    // STD: the 4 driver rows probe R1, its 3 matches probe R2 and their 3
    // matches probe the empty R3.
    assert(Engine.run(e, Seq(1, 2, 3), Approach.Std).log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 3L))
    // COM: as on the full data up to R3 (4, 3, 2); nothing survives R3, so
    // no entry is alive at any node.
    assert(Engine.run(e, Seq(1, 2, 3), Approach.Com).log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 2L))
    assert(Engine.run(e, Seq(1, 2, 3), Approach.Com, flatOutput = false).log.outRows == 0L)
    assertNoRows(e)
  }

  test("an internal node's only child empty (R2 under R1): no rows, no probes past it") {
    val e = emptied(2)
    // STD: 4 driver rows probe R1 and its 3 matches probe the empty R2;
    // nothing is left to probe R3.
    assert(Engine.run(e, Seq(1, 2, 3), Approach.Std).log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 0L))
    // COM: no R1 entry survives the empty R2, so no driver entry is alive
    // to probe R3, and none is alive at any node.
    assert(Engine.run(e, Seq(1, 2, 3), Approach.Com).log.htProbes == Map(1 -> 4L, 2 -> 3L, 3 -> 0L))
    assert(Engine.run(e, Seq(1, 2, 3), Approach.Com, flatOutput = false).log.outRows == 0L)
    assertNoRows(e)
  }

  test("counting=false skips probe accounting but still answers") {
    for (a <- Approach.all) {
      val r = Engine.run(q, Seq(1, 2, 3), a, counting = false)
      assert(r.log.htProbes.isEmpty, a.name)
      assert(r.log.bvProbes == 0L && r.log.semiProbes == 0L, a.name)
      assert(r.log.outRows == 1L, a.name)
    }
  }

  test("factorized output is rejected for the STD family") {
    for (a <- Seq(Approach.Std, Approach.BvpStd, Approach.SjStd))
      intercept[IllegalArgumentException](Engine.run(q, Seq(1, 2, 3), a, flatOutput = false))
  }

  test("Spark SQL actions per call: one per count and per checkpoint") {
    // Order [1,2,3]; the driver's children are 1 and 3, node 1's child is 2.
    // Counted only: 3 hash-join steps; BVP's 3 bitvectors (1 and 3 on the
    // driver, 2 after joining 1); SJ's 3 phase-1 semi-joins (node 1 by 2,
    // the driver by 1 and 3). Always: SJ's 2 phase-1 checkpoints (nodes 1
    // and 0); COM's 4 checkpoints (A(0) and one per step); the output, one
    // flat count or one count of the union of the 4 nodes' alive entries
    // (factorized).
    import Approach._
    val expected = Seq( // (approach, flat output, counted, uncounted)
      (Std, true, 4, 1), (BvpStd, true, 7, 1), (SjStd, true, 9, 3),
      (Com, true, 8, 5), (BvpCom, true, 11, 5), (SjCom, true, 13, 7),
      (Com, false, 8, 5), (BvpCom, false, 11, 5), (SjCom, false, 13, 7))
    for ((a, flat, counted, uncounted) <- expected; counting <- Seq(true, false)) {
      val (_, plans) = recordPlans(Engine.run(q, Seq(1, 2, 3), a, counting, flat))
      assert(plans.length == (if (counting) counted else uncounted),
        s"${a.name} flat=$flat counting=$counting")
    }
  }

  test("Spark jobs per uncounted call: one per broadcast and one per count") {
    // Order [1,2,3]; the driver's children are 1 and 3, node 1's child is 2.
    // Every build side is a broadcast, one job each; a checkpoint runs no
    // job of its own (it is lazy: the first job that reads it fills it),
    // and the output is counted in one job.
    // STD: 3 hash-join steps + 1 count = 4. BVP adds 3 bitvectors (1 and 3
    // on the driver, 2 after joining 1): 7. SJ's phase 1 adds 3 semi-joins
    // (node 1 by 2, the driver by 1 and 3) to either pipeline.
    // COM: step 1 broadcasts A(0); step 2 broadcasts A(1) alone, since no
    // node outside 1's subtree has joined since 1 (no top-down filter);
    // step 3 broadcasts A(2), A(1) ⋉ A(2) and the alive driver entries; the
    // expansion broadcasts A(1..3) and counts: 1 + 1 + 3 + 3 + 1 = 9.
    // Factorized, the union of the four alive sets shares its broadcasts:
    // alive(0) needs A(2), A(1) ⋉ A(2) and A(3); alive(1) adds A(0) ⋉ A(3)
    // (1 is stale: 3 joined after it); alive(2) adds A(1) ⋉ alive(0, 1)
    // (2 is stale too); alive(3) is A(3). 5 steps' jobs + 5 + 1 = 11.
    import Approach._
    val expected = Seq( // (approach, flat output, jobs)
      (Std, true, 4), (BvpStd, true, 7), (SjStd, true, 7),
      (Com, true, 9), (BvpCom, true, 12), (SjCom, true, 12),
      (Com, false, 11), (BvpCom, false, 14), (SjCom, false, 14))
    for ((a, flat, jobs) <- expected) {
      val (r, started) = recordJobs(Engine.run(q, Seq(1, 2, 3), a, counting = false, flat))
      assert(r.log.outRows == (if (flat) 1L else 4L), s"${a.name} flat=$flat")
      assert(started.length == jobs, s"${a.name} flat=$flat: ${started.mkString(", ")}")
    }
  }
}
