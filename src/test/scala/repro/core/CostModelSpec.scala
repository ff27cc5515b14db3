package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CostModelSpec extends AnyFunSuite {

  private val N = 1000.0
  private val (m2, fo2) = (0.4, 3.0)
  private val (m3, fo3) = (0.6, 2.0)
  private val (m4, fo4) = (0.3, 4.0)
  private val (m5, fo5) = (0.7, 2.5)
  private val (m6, fo6) = (0.5, 1.5)

  private val tree = JoinTree.runningExample(
    Seq(EdgeStats(m2, fo2), EdgeStats(m3, fo3), EdgeStats(m4, fo4),
        EdgeStats(m5, fo5), EdgeStats(m6, fo6)),
    driverSize = N)

  // Paper's Fig 5 order: R2, R3, R5, R4, R6 → nodes 1, 2, 4, 3, 5.
  private val order = Seq(1, 2, 4, 3, 5)

  test("STD probe total matches the §3.3 'in contrast' expression") {
    val s2 = m2 * fo2; val s3 = m3 * fo3; val s5 = m5 * fo5; val s4 = m4 * fo4
    val expected = N * (1 + s2 + s2 * s3 + s2 * s3 * s5 + s2 * s3 * s5 * s4)
    assert(math.abs(CostModel.cost(tree, order, Approach.Std).htProbes - expected) < 1e-6)
  }

  test("COM probe total matches the §3.3 succinct expression") {
    val m23   = m2 * (1 - math.pow(1 - m3, fo2))
    val m1234 = m2 * (1 - math.pow(1 - m3 * m4, fo2))
    val expected = N * (1 + m2 * fo2 + m23 + m2 * m5 * fo2 * m3 + m1234 * m5 * fo5)
    val c = CostModel.cost(tree, order, Approach.Com, flatOutput = false)
    assert(math.abs(c.htProbes - expected) < 1e-6)
  }

  test("COM and STD probe totals coincide when every fanout is 1") {
    val t = JoinTree.runningExample(
      Seq(EdgeStats(m2, 1), EdgeStats(m3, 1), EdgeStats(m4, 1),
          EdgeStats(m5, 1), EdgeStats(m6, 1)), N)
    val c = CostModel.cost(t, order, Approach.Com, flatOutput = false).htProbes
    val s = CostModel.cost(t, order, Approach.Std).htProbes
    assert(math.abs(c - s) < 1e-9)
  }

  test("COM probes never exceed STD probes") {
    assert(CostModel.cost(tree, order, Approach.Com, flatOutput = false).htProbes <=
      CostModel.cost(tree, order, Approach.Std).htProbes + 1e-9)
  }

  test("STD generation tuples sum every intermediate") {
    val s2 = m2 * fo2; val s3 = m3 * fo3; val s5 = m5 * fo5; val s4 = m4 * fo4; val s6 = m6 * fo6
    val expected = N * (s2 + s2 * s3 + s2 * s3 * s5 + s2 * s3 * s5 * s4 + s2 * s3 * s5 * s4 * s6)
    assert(math.abs(CostModel.cost(tree, order, Approach.Std).genTuples - expected) < 1e-6)
  }

  test("COM flat output charges exactly the expected final result size") {
    val c = CostModel.cost(tree, order, Approach.Com, flatOutput = true)
    assert(math.abs(c.genTuples - tree.expectedOutput) < 1e-9)
    assert(CostModel.cost(tree, order, Approach.Com, flatOutput = false).genTuples == 0.0)
  }

  test("validateOrder rejects precedence violations") {
    intercept[IllegalArgumentException](CostModel.cost(tree, Seq(2, 1, 4, 3, 5), Approach.Std))
    intercept[IllegalArgumentException](CostModel.cost(tree, Seq(1, 2, 4, 3), Approach.Std))
  }

  test("BVP+STD: eps=0 removes false positives and bitvectors become exact") {
    val c = CostModel.cost(tree, order, Approach.BvpStd, eps = 0.0)
    // With exact bitvectors, probes into R2's hash table are the driver
    // tuples that match both driver-level bitvectors: N m2 m5.
    // Full expression follows the sweep; check the total is below STD.
    assert(c.htProbes < CostModel.cost(tree, order, Approach.Std).htProbes)
    assert(c.bvProbes > 0)
  }

  test("BVP+STD hash probes grow with eps") {
    val lo = CostModel.cost(tree, order, Approach.BvpStd, eps = 0.0).htProbes
    val hi = CostModel.cost(tree, order, Approach.BvpStd, eps = 0.2).htProbes
    assert(hi > lo)
  }

  test("BVP+STD first hash-join probes = N (m2+eps)(m5+eps)") {
    val eps = 0.01
    var t   = N * (m2 + eps) * (m5 + eps)
    // sweep the remaining joins to reproduce the closed formula
    var expected = t // probes into R2
    t *= (m2 / (m2 + eps)) * fo2
    // BVs of R3, R4 fire now
    val afterBv34 = t * (m3 + eps) * (m4 + eps)
    expected += afterBv34 // probes into R3
    val c = CostModel.cost(tree, Seq(1, 2, 3, 4, 5), Approach.BvpStd, eps = eps)
    // first two hash probe terms of the sweep must be part of the total
    assert(c.htProbes > expected - 1e-9)
  }

  test("BVP+COM: probes below plain COM when matches are selective") {
    val lowM = JoinTree.runningExample(
      Seq(EdgeStats(0.1, 3), EdgeStats(0.1, 2), EdgeStats(0.1, 4),
          EdgeStats(0.1, 2.5), EdgeStats(0.1, 1.5)), N)
    val bvp = CostModel.cost(lowM, order, Approach.BvpCom, flatOutput = false, eps = 0.0)
    val com = CostModel.cost(lowM, order, Approach.Com, flatOutput = false)
    assert(bvp.htProbes < com.htProbes)
    assert(bvp.bvProbes > 0)
  }

  test("BVP+COM on a two-join path: hash probes and the sweeps before and after a join") {
    val path = JoinTree(Seq((0, 0.5, 2.0), (1, 0.4, 3.0)), driverSize = 100)
    val c    = CostModel.cost(path, Seq(1, 2), Approach.BvpCom, flatOutput = false, eps = 0.1)
    // BV(1) passes 100 × 0.6 driver rows: 60 probes into R1. Its join leaves
    // 60 × (0.5 / 0.6) × 2 = 100 entries, which BV(2) passes at 0.5: 50
    // probes into R2.
    assert(math.abs(c.htProbes - 110) < 1e-9)
    // BV(1) sees the 100 driver rows, BV(2) R1's 100 entries.
    assert(math.abs(c.bvProbes - 200) < 1e-9)
  }

  test("SJ cost includes phase-1 semi-join probes") {
    val c = CostModel.cost(tree, order, Approach.SjStd, flatOutput = true)
    assert(c.semiProbes > 0)
    assert(c.semiProbes == SemiJoinModel.phase1Probes(tree))
  }

  test("SJ+STD phase-2 runs on the reduced tree (all m = 1)") {
    val rt = SemiJoinModel.reducedTree(tree)
    val expected = CostModel.cost(rt, order, Approach.Std)
    val c = CostModel.cost(tree, order, Approach.SjStd, flatOutput = true)
    assert(math.abs(c.htProbes - expected.htProbes) < 1e-9)
  }

  test("SJ+COM flat charges the original expected output") {
    val c = CostModel.cost(tree, order, Approach.SjCom, flatOutput = true)
    assert(math.abs(c.genTuples - tree.expectedOutput) < 1e-6)
  }

  test("reduced tree preserves the expected output cardinality") {
    val rt = SemiJoinModel.reducedTree(tree)
    assert(math.abs(rt.expectedOutput - tree.expectedOutput) < 1e-6)
  }

  test("PlanCost.total applies the §5.4 weights") {
    val c = PlanCost(htProbes = 100, bvProbes = 10, semiProbes = 20, genTuples = 140)
    val w = Weights()
    assert(math.abs(c.total(w) - (100 + 5 + 10 + 10)) < 1e-9)
  }

  test("PlanCost addition is componentwise") {
    val a = PlanCost(1, 2, 3, 4) + PlanCost(10, 20, 30, 40)
    assert(a == PlanCost(11, 22, 33, 44))
  }

  test("cost dispatch covers all six approaches") {
    for (a <- Approach.all) {
      val c = CostModel.cost(tree, order, a)
      assert(c.htProbes > 0, a.name)
    }
  }

  test("approach flags: exactly the COM family reports usesCom") {
    assert(Approach.all.filter(_.usesCom).map(_.name).toSet ==
      Set("COM", "BVP+COM", "SJ+COM"))
    assert(Approach.all.filter(_.bitvectors).map(_.name).toSet == Set("BVP+STD", "BVP+COM"))
    assert(Approach.all.filter(_.semiJoins).map(_.name).toSet == Set("SJ+STD", "SJ+COM"))
  }

  test("per-relation probe costs scale the hash probe charge") {
    val t2 = JoinTree(Seq((0, m2, fo2)), driverSize = N, probeCost = Seq(1.0, 5.0))
    assert(math.abs(CostModel.cost(t2, Seq(1), Approach.Std).htProbes - 5.0 * N) < 1e-9)
  }
}
