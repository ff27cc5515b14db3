package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Checks the survival recursion and Eq. (1) against the paper's §3.3
  * worked example (Fig 5: driver R1, order R2, R3, R5, R4, R6).
  *
  * Node map for the running example: R2=1, R3=2, R4=3, R5=4, R6=5.
  */
class SurvivalSpec extends AnyFunSuite {
  import Survival._

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

  private def mask(is: Int*): Int = is.foldLeft(1)((m, i) => m | bit(i))

  test("first probe count is N") {
    assert(probesCom(tree, mask(), 1) == N)
  }

  test("probes into R3 after R2 = N m2 fo2 (paper: N s2)") {
    assert(math.abs(probesCom(tree, mask(1), 2) - N * m2 * fo2) < 1e-9)
  }

  test("probes into R5 after R2,R3 = N m2 (1-(1-m3)^fo2)") {
    val expected = N * m2 * (1 - math.pow(1 - m3, fo2))
    assert(math.abs(probesCom(tree, mask(1, 2), 4) - expected) < 1e-9)
  }

  test("probes into R4 after R2,R3,R5 = N m2 m5 fo2 m3") {
    val expected = N * m2 * m5 * fo2 * m3
    assert(math.abs(probesCom(tree, mask(1, 2, 4), 3) - expected) < 1e-9)
  }

  test("probes into R6 after R2,R3,R5,R4 = N m2 (1-(1-m3 m4)^fo2) m5 fo5") {
    val expected = N * m2 * (1 - math.pow(1 - m3 * m4, fo2)) * m5 * fo5
    assert(math.abs(probesCom(tree, mask(1, 2, 3, 4), 5) - expected) < 1e-9)
  }

  test("branch survival of a leaf branch is its match probability") {
    assert(branchSurvival(tree, mask(1), 1) == m2)
    assert(branchSurvival(tree, mask(4), 4) == m5)
  }

  test("branch survival m_{2,3} follows the recursion") {
    val expected = m2 * (1 - math.pow(1 - m3, fo2))
    assert(math.abs(branchSurvival(tree, mask(1, 2), 1) - expected) < 1e-12)
  }

  test("branch survival m_{2,3,4} multiplies sibling survivals inside the power") {
    val expected = m2 * (1 - math.pow(1 - m3 * m4, fo2))
    assert(math.abs(branchSurvival(tree, mask(1, 2, 3), 1) - expected) < 1e-12)
  }

  test("nested branch survival composes depth-2 recursion (R5-R6 branch)") {
    val inner    = m6 // leaf survival of R6
    val expected = m5 * (1 - math.pow(1 - inner, fo5))
    assert(math.abs(branchSurvival(tree, mask(4, 5), 4) - expected) < 1e-12)
  }

  test("tree survival over all evaluated relations multiplies root branches") {
    val b1 = m2 * (1 - math.pow(1 - m3 * m4, fo2))
    val b2 = m5 * (1 - math.pow(1 - m6, fo5))
    val expected = b1 * b2
    assert(math.abs(treeSurvival(tree, mask(1, 2, 3, 4, 5)) - expected) < 1e-12)
  }

  test("tree survival of the bare driver is 1") {
    assert(treeSurvival(tree, mask()) == 1.0)
  }

  test("survival never increases as more joins are evaluated") {
    var prev = 1.0
    var m    = mask()
    for (l <- Seq(1, 2, 4, 3, 5)) {
      m |= bit(l)
      val s = treeSurvival(tree, m)
      assert(s <= prev + 1e-12)
      prev = s
    }
  }

  test("probes order-independence: same evaluated set, same probe estimate") {
    // eval {R2,R3,R5} reached via different orders must give equal probes
    // into R4 — Eq. (1) depends only on the set.
    val p = probesCom(tree, mask(1, 2, 4), 3)
    assert(p == probesCom(tree, mask(4, 1, 2), 3))
  }

  test("probesCom rejects an already-evaluated relation") {
    intercept[IllegalArgumentException](probesCom(tree, mask(1), 1))
  }

  test("probesCom rejects a relation whose parent is unevaluated") {
    intercept[IllegalArgumentException](probesCom(tree, mask(), 5))
  }

  test("with all fanouts 1, COM probes equal STD probes for any prefix") {
    val t1 = JoinTree.runningExample(
      Seq(EdgeStats(m2, 1), EdgeStats(m3, 1), EdgeStats(m4, 1),
          EdgeStats(m5, 1), EdgeStats(m6, 1)), N)
    // STD probes into R4 after R2,R3,R5 = N s2 s3 s5 with s = m here.
    val com = probesCom(t1, mask(1, 2, 4), 3)
    assert(math.abs(com - N * m2 * m3 * m5) < 1e-9)
  }

  test("BVP pending bitvectors multiply (m+eps) factors (§3.5 R5 example)") {
    val eps = 0.05
    // eval {R2,R3,R4}; probing R5 (child of root): paper-style estimate
    // N (m5+eps) m2 (1-(1-m3 m4)^fo2) — our principled variant uses exact
    // m4 for the already-joined R4 (see DESIGN.md).
    val expected = N * math.min(1, m5 + eps) * m2 * (1 - math.pow(1 - m3 * m4, fo2))
    val got      = probesCom(tree, mask(1, 2, 3), 4, Some(eps))
    assert(math.abs(got - expected) < 1e-9)
  }

  test("BVP probes into R6 after R2..R5: the path node R5 expands, BV(R6) filters") {
    val eps = 0.05
    // R5 lies on the path to R6, so it contributes m5 fo5 rather than a
    // branch survival; R6's own bitvector contributes (m6 + eps).
    val expected =
      N * m2 * (1 - math.pow(1 - m3 * m4, fo2)) * (m5 * fo5) * math.min(1, m6 + eps)
    val got = probesCom(tree, mask(1, 2, 3, 4), 5, Some(eps))
    assert(math.abs(got - expected) < 1e-9)
  }

  test("BVP branch survival counts pending children at (m+eps)") {
    val eps = 0.02
    // eval {R2, R3}: branch {1,2} with pending child R4 under R2.
    val expected = m2 * (1 - math.pow(1 - m3 * math.min(1, m4 + eps), fo2))
    assert(math.abs(branchSurvival(tree, mask(1, 2), 1, Some(eps)) - expected) < 1e-12)
  }

  test("BVP+COM bitvectors after a join see probes times conditional selectivity") {
    val eps = 0.05
    // N (m2+eps)(m5+eps) probes enter R2; the join resolves BV(R2)'s false
    // positives (m2/(m2+eps)) and expands by fo2. BV(R3) sees those entries,
    // BV(R4) what BV(R3) passes.
    val entries  = N * m2 * math.min(1, m5 + eps) * fo2
    val expected = entries * (1 + math.min(1, m3 + eps))
    val got      = CostModel.comStep(tree, mask(), 1, Some(eps)).bvProbes
    assert(math.abs(got - expected) < 1e-9)
  }
}
