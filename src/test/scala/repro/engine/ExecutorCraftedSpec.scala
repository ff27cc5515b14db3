package repro.engine

import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.core.{Approach, JoinTree}
import repro.data.TreeQuery

/** Executor semantics on hand-crafted datasets where every probe count is
  * known exactly (see the derivation in the comments): `q`, below, and
  * `mm`, a many-to-many query described where it is defined.
  *
  * Shape of `q`: driver R0(k0 ∈ 1..4); R1 joins k0 (matches: k0=1 → {11,12},
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

  /** A many-to-many query: driver M0(k0, a0) with a0 = 1, 1, 2, 3 for k0 =
    * 1…4; M1(k1, fa1, b1) joins a0 (1 → {11, 12}, 2 → {13}, 3 → {14}), so
    * rows 11 and 12 each match driver rows 1 and 2; M2(k2, fb2) joins b1
    * (b1 of 11, 12, 13, 14 = 7, 8, 7, 9; 7 → {21, 22}, 8 → {23}); M3(k3,
    * fa3) joins a0 (1 → {31}, 2 → {32}), so row 31 matches driver rows 1
    * and 2. The result has 3 tuples per driver row 1 and 2 (11×{21, 22} and
    * 12×{23}, each with 31) and 2 for driver row 3 (13×{21, 22}, with 32): 8.
    */
  private lazy val mm: TreeQuery = {
    import spark.implicits._
    val m0 = Seq((1L, 1L), (2L, 1L), (3L, 2L), (4L, 3L)).toDF("k0", "a0")
    val m1 = Seq((11L, 1L, 7L), (12L, 1L, 8L), (13L, 2L, 7L), (14L, 3L, 9L)).toDF("k1", "fa1", "b1")
    val m2 = Seq((21L, 7L), (22L, 7L), (23L, 8L)).toDF("k2", "fb2")
    val m3 = Seq((31L, 1L), (32L, 2L)).toDF("k3", "fa3")
    val tree = JoinTree(Seq((0, 1.0, 1.5), (1, 0.75, 5.0 / 3), (0, 0.75, 1.0)), driverSize = 4)
    TreeQuery(tree, IndexedSeq(m0, m1, m2, m3),
      parentCol = IndexedSeq("", "a0", "b1", "a0"),
      childCol  = IndexedSeq("", "fa1", "fb2", "fa3"),
      keyCol    = IndexedSeq("k0", "k1", "k2", "k3"))
  }

  test("many-to-many: COM looks up once per alive entry, and counts each lookup") {
    // COM, order [1,2,3]: the 4 driver entries probe M1 and get 6 entries
    // (1:{11,12}, 2:{11,12}, 3:{13}, 4:{14}); all 6 are alive and probe M2,
    // 3 distinct rows among them. (4,14) finds nothing, so driver entry 4
    // dies; the 3 alive driver entries probe M3. STD probes M2 with the same
    // 6 tuples and M3 with all 8 of their matches.
    assert(Engine.run(mm, Seq(1, 2, 3), Approach.Std).log == ProbeLog(Map(1 -> 4L, 2 -> 6L, 3 -> 8L), 0L, 0L, 8L))
    assert(Engine.run(mm, Seq(1, 2, 3), Approach.Com).log == ProbeLog(Map(1 -> 4L, 2 -> 6L, 3 -> 3L), 0L, 0L, 8L))
    // COM, order [1,3,2]: the 4 driver entries probe M1 and, all alive, M3;
    // driver entry 4 finds nothing in M3 and dies, so the 5 M1 entries of
    // driver entries 1–3 probe M2 (STD: the 5 tuples left after M3).
    assert(Engine.run(mm, Seq(1, 3, 2), Approach.Com).log == ProbeLog(Map(1 -> 4L, 3 -> 4L, 2 -> 5L), 0L, 0L, 8L))
    // BVP+COM, order [1,2,3]: the driver's 4 rows pass F1 (a0 ∈ {1, 2, 3})
    // and all 4 try F3 ({1, 2}), which drops row 4: 8 bitvector probes.
    // The 3 entries probe M1; their 5 matches try F2 (b1 ∈ {7, 8}) and all
    // pass: 5 more. The 5 M1 entries probe M2 (no filters: M2 is a leaf),
    // and the 3 driver entries probe M3.
    assert(Engine.run(mm, Seq(1, 2, 3), Approach.BvpCom).log == ProbeLog(Map(1 -> 3L, 2 -> 5L, 3 -> 3L), 13L, 0L, 8L))
    // SJ+COM: phase 1 reduces M1 by M2's key set (4 probes; 14 goes), then
    // the driver by M1's and M3's (4 probes, row 4 goes, then 3 probes):
    // 11 semi-join probes. Phase 2 probes as BVP+COM does.
    assert(Engine.run(mm, Seq(1, 2, 3), Approach.SjCom).log == ProbeLog(Map(1 -> 3L, 2 -> 5L, 3 -> 3L), 0L, 11L, 8L))
    // Factorized output, each relation's alive entries: driver {1, 2, 3},
    // 5 of M1, the 8 of M2 under them (1:11:{21,22}, 1:12:{23}, the same
    // under 2, 3:13:{21,22}) and 3 of M3 (1:31, 2:31, 3:32): 19, where the
    // distinct rows number 3 + 3 + 3 + 2 = 11.
    for (a <- Approach.all.filter(_.usesCom)) withClue(a.name) {
      assert(Engine.run(mm, Seq(1, 2, 3), a, flatOutput = false).log.outRows == 19L)
    }
    repro.Oracle.assertEquivalent(Engine.run(mm, Seq(1, 2, 3), Approach.Com).flat.get,
      mm.flatSql, mm.oracleTables: _*)
  }

  test("all six approaches return exactly the same flat result") {
    val expected = bag(Engine.run(q, Seq(1, 2, 3), Approach.Std).flat.get)
    for (a <- Approach.all) {
      val got = bag(Engine.run(q, Seq(1, 2, 3), a).flat.get)
      assert(got == expected, a.name)
    }
  }

  test("every approach's counts and flat bag equal the exact reference, full or emptied") {
    for (e <- Seq(q, emptied(2), emptied(3), mm)) {
      val ref = new ExactReference(e)
      for (a <- Approach.all; order <- Seq(Seq(1, 2, 3), Seq(1, 3, 2), Seq(3, 1, 2)); flat <- Seq(true, false)
           if flat || a.usesCom) withClue(s"${a.name} $order flat=$flat: ") {
        val r = Engine.run(e, order, a, counting = true, flatOutput = flat)
        assert(r.log == ref.log(order, a, flat))
        if (flat) assert(bag(r.flat.get) == ref.bag)
      }
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

  /** `q` with relations `is` emptied: each a scan of an RDD with no
    * partitions, so no task reads it.
    */
  private def emptied(is: Int*): TreeQuery =
    q.copy(rels = is.foldLeft(q.rels)((rels, i) => rels.updated(i,
      spark.createDataFrame(spark.sparkContext.emptyRDD[Row], q.rels(i).schema))))

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

  private lazy val driverParts = q.rels(0).queryExecution.toRdd.getNumPartitions

  /** Every approach with flat output, and the COM family's factorized. */
  private val outputs = Approach.all.map((_, true)) ++ Approach.all.filter(_.usesCom).map((_, false))

  test("two Spark jobs per call") {
    // Job 1 collects the columns of R1, R2 and R3, one job over their
    // union; job 2 runs the approach over the driver's partitions. Nothing
    // else starts a job, counted or not: SJ's phase 1 runs on the collected
    // columns and, for the driver, inside job 2; bitvectors and COM's
    // survival and alive filters are probes into key sets inside job 2;
    // the counts and the output rows return with job 2's results; and the
    // flat result is a lazy DataFrame.
    // Job 1 reads the union in one task; job 2 runs a task per driver
    // partition.
    for ((a, flat) <- outputs; counting <- Seq(true, false)) {
      val (r, jobs) = recordJobs(Engine.run(q, Seq(1, 2, 3), a, counting, flat))
      assert(r.log.outRows == (if (flat) 1L else 4L), s"${a.name} flat=$flat counting=$counting")
      assert(jobs.map(_.stageTasks) == Seq(Seq(1), Seq(driverParts)),
        s"${a.name} flat=$flat counting=$counting: ${jobs.mkString(", ")}")
    }
  }

  test("no partition to read: every build side empty, or the driver") {
    // Emptied R1–R3 leave job 1's union with no partition, so it runs no
    // task; an emptied driver leaves job 2 none. Each is still one job.
    for ((e, tasks) <- Seq(emptied(1, 2, 3) -> Seq(0, driverParts), emptied(0) -> Seq(1, 0))) {
      val ref = new ExactReference(e)
      for ((a, flat) <- outputs) withClue(s"${a.name} flat=$flat tasks=$tasks: ") {
        val (r, jobs) = recordJobs(Engine.run(e, Seq(1, 2, 3), a, counting = true, flatOutput = flat))
        assert(r.log.outRows == 0L)
        assert(r.log == ref.log(Seq(1, 2, 3), a, flat))
        if (flat) assert(bag(r.flat.get) == ref.bag)
        assert(jobs.map(_.stageTasks.sum) == tasks, jobs.mkString(", "))
      }
    }
  }

  test("a call runs no shuffle stage") {
    for ((a, flat) <- outputs; counting <- Seq(true, false)) {
      val (_, jobs) = recordJobs(Engine.run(q, Seq(1, 2, 3), a, counting, flat))
      assert(jobs.forall(_.shuffleStages == 0), s"${a.name} flat=$flat counting=$counting: ${jobs.mkString(", ")}")
    }
  }

  test("a join or key column that is not bigint is refused by name") {
    import spark.implicits._
    for ((rel, column) <- Seq(Seq((31, 1L), (32, 3L)).toDF("k3", "fk3") -> "k3",
                              Seq((31L, 1), (32L, 3)).toDF("k3", "fk3") -> "fk3")) {
      val e = intercept[IllegalArgumentException](
        Engine.run(q.copy(rels = q.rels.updated(3, rel)), Seq(1, 2, 3), Approach.Std))
      assert(e.getMessage.contains(s"column $column of relation 3 is int"), e.getMessage)
    }
  }
}
