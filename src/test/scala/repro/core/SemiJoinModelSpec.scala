package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SemiJoinModelSpec extends AnyFunSuite {
  import SemiJoinModel._

  test("adjusted m' = m (1-(1-ratio)^fo)") {
    assert(math.abs(adjustedM(0.5, 2, 0.5) - 0.5 * (1 - 0.25)) < 1e-12)
  }

  test("adjusted fo' = fo ratio / (1-(1-ratio)^fo)") {
    assert(math.abs(adjustedFo(2, 0.5) - 2 * 0.5 / 0.75) < 1e-12)
  }

  test("adjusted fo' never drops below 1, even through rounding") {
    // For fo just above 1 and a small ratio, fo' is at least 1 in exact
    // arithmetic but the division can round to just under it.
    for (k <- 1 to 8; j <- 3 to 12) {
      val (fo, ratio) = (1 + math.pow(10, -j), math.pow(10, -k))
      assert(adjustedFo(fo, ratio) >= 1.0, s"fo=$fo ratio=$ratio")
    }
  }

  test("ratio 1 leaves statistics unchanged") {
    assert(adjustedM(0.3, 4, 1.0) == 0.3)
    assert(adjustedFo(4, 1.0) == 4.0)
  }

  test("Thm 3.4 invariant: m' fo' = ratio × m × fo") {
    val rng = new Random(3)
    for (_ <- 0 until 200) {
      val m = rng.nextDouble(); val fo = 1 + rng.nextDouble() * 9
      val r = rng.nextDouble()
      val lhs = adjustedM(m, fo, r) * adjustedFo(fo, r)
      assert(math.abs(lhs - r * m * fo) < 1e-9)
    }
  }

  test("Thm 3.4 Monte-Carlo: adjusted m and fo match simulation") {
    val rng = new Random(7)
    val (m, fo, ratio) = (0.6, 4, 0.35)
    val trials = 200000
    var matchedAfter = 0
    var survivors    = 0L
    for (_ <- 0 until trials) {
      if (rng.nextDouble() < m) {
        // fo matches, each kept independently with prob `ratio`
        val kept = (0 until fo).count(_ => rng.nextDouble() < ratio)
        if (kept > 0) { matchedAfter += 1; survivors += kept }
      }
    }
    val mPrime  = matchedAfter.toDouble / trials
    val foPrime = survivors.toDouble / matchedAfter
    assert(math.abs(mPrime - adjustedM(m, fo, ratio)) < 0.01)
    assert(math.abs(foPrime - adjustedFo(fo, ratio)) < 0.05)
  }

  private val N = 1000.0
  private val (m2, fo2) = (0.4, 3.0)
  private val (m3, fo3) = (0.2, 2.0) // m3 < m4 so the paper's semi-join order holds
  private val (m4, fo4) = (0.3, 4.0)
  private val (m5, fo5) = (0.7, 2.5)
  private val (m6, fo6) = (0.5, 1.5)

  private val tree = JoinTree.runningExample(
    Seq(EdgeStats(m2, fo2), EdgeStats(m3, fo3), EdgeStats(m4, fo4),
        EdgeStats(m5, fo5), EdgeStats(m6, fo6)),
    driverSize = N)

  test("reduction ratios: leaves 1, internal nodes multiply adjusted m'") {
    val red = reductionRatios(tree)
    assert(red(2) == 1.0 && red(3) == 1.0 && red(5) == 1.0)
    assert(math.abs(red(1) - m3 * m4) < 1e-12)           // R2 ⋉ R3 ⋉ R4 (leaf children)
    assert(math.abs(red(4) - m6) < 1e-12)                // R5 ⋉ R6
    val m01 = adjustedM(m2, fo2, m3 * m4)
    val m04 = adjustedM(m5, fo5, m6)
    assert(math.abs(red(0) - m01 * m04) < 1e-12)
  }

  test("phase-1 probes match the §3.6 worked formula") {
    // |R2| + m3|R2| + |R5| + |R1| + m'_{R1→R2}|R1|  — assumes the cheaper
    // child is semi-joined first, which our ordering guarantees (m3 < m4,
    // and m'_{0→1} < m'_{0→4} for these statistics).
    val szR2 = tree.size(1); val szR5 = tree.size(4)
    val m01  = adjustedM(m2, fo2, m3 * m4)
    val m04  = adjustedM(m5, fo5, m6)
    assert(m01 < m04, "statistics chosen so R2 is semi-joined before R5")
    val expected = szR2 + m3 * szR2 + szR5 + N + m01 * N
    assert(math.abs(phase1Probes(tree) - expected) < 1e-6)
  }

  test("reduced tree: all phase-2 match probabilities are 1") {
    val rt = reducedTree(tree)
    assert((1 until rt.n).forall(rt.stats(_).m == 1.0))
  }

  test("reduced tree: driver shrinks by red(0)") {
    val red = reductionRatios(tree)
    assert(math.abs(reducedTree(tree).driverSize - N * red(0)) < 1e-9)
  }

  test("reduced fanouts are the Thm 3.4 adjustments") {
    val rt  = reducedTree(tree)
    val red = reductionRatios(tree)
    for (i <- 1 until tree.n) {
      val st = tree.stats(i)
      assert(math.abs(rt.stats(i).fo - adjustedFo(st.fo, red(i))) < 1e-12)
    }
  }

  test("phase2OrderStd is a valid order sorted greedily by adjusted fanout") {
    val o = phase2OrderStd(tree)
    CostModel.validateOrder(tree, o)
  }

  test("Thm 3.5: SJ+COM phase-2 probe cost is join-order independent") {
    val rng  = new Random(5)
    val base = CostModel.cost(tree, phase2OrderStd(tree), Approach.SjCom, flatOutput = false)
    for (_ <- 0 until 20) {
      val o = Optimizer.randomOrder(tree, rng)
      val c = CostModel.cost(tree, o, Approach.SjCom, flatOutput = false)
      assert(math.abs(c.htProbes - base.htProbes) < 1e-6 * math.max(1.0, base.htProbes))
    }
  }

  test("SJ+STD phase-2 cost does depend on the order (unlike COM)") {
    val rng = new Random(5)
    val costs = (0 until 20).map { _ =>
      CostModel.cost(tree, Optimizer.randomOrder(tree, rng), Approach.SjStd,
        flatOutput = false).htProbes
    }
    assert(costs.distinct.length > 1)
  }

  test("phase2OrderStd minimizes SJ+STD probe cost over random orders") {
    val rng  = new Random(9)
    val best = CostModel.cost(tree, phase2OrderStd(tree), Approach.SjStd, flatOutput = false)
    for (_ <- 0 until 50) {
      val c = CostModel.cost(tree, Optimizer.randomOrder(tree, rng), Approach.SjStd,
        flatOutput = false)
      assert(best.htProbes <= c.htProbes + 1e-6)
    }
  }
}
