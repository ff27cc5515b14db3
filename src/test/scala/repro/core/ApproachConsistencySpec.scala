package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Cross-model invariants that must hold over arbitrary trees — the glue
  * that lets the six estimators be compared on one scale (§3.5, §3.6, §5.4).
  */
class ApproachConsistencySpec extends AnyFunSuite {

  private def randomTree(rng: Random, n: Int = 6): JoinTree =
    JoinTree.random(n, (0.1, 0.8), (1, 6), rng, driverSize = 1000)

  private def survOrder(t: JoinTree): Seq[Int] =
    Optimizer.greedy(t, Optimizer.Heuristic.SurvivalProb)

  /** STD step cost for Algorithm 1: c_l × N Π s over the evaluated set. */
  private def stdStep(t: JoinTree)(mask: Int, l: Int): Double =
    t.probeCost(l) * (1 until t.n).filter(i => (mask & (1 << i)) != 0)
      .foldLeft(t.driverSize)((acc, i) => acc * t.stats(i).s)

  test("BVP+COM hash probes converge to COM probes as eps grows to cover m gaps") {
    // With eps large enough that every (m + eps) caps at 1, the bitvectors
    // filter nothing and hash probes equal plain COM.
    val rng = new Random(61)
    for (_ <- 0 until 20) {
      val t = randomTree(rng)
      val o = survOrder(t)
      val bvp = CostModel.cost(t, o, Approach.BvpCom, flatOutput = false, eps = 1.0).htProbes
      val com = CostModel.cost(t, o, Approach.Com, flatOutput = false).htProbes
      assert(math.abs(bvp - com) < 1e-6 * math.max(1.0, com))
    }
  }

  test("BVP+STD hash probes converge to STD probes at saturating eps") {
    val rng = new Random(67)
    for (_ <- 0 until 20) {
      val t = randomTree(rng)
      val o = survOrder(t)
      val bvp = CostModel.cost(t, o, Approach.BvpStd, eps = 1.0).htProbes
      val std = CostModel.cost(t, o, Approach.Std).htProbes
      assert(math.abs(bvp - std) < 1e-6 * math.max(1.0, std))
    }
  }

  test("BVP+COM hash probes are monotone non-decreasing in eps") {
    val rng = new Random(71)
    for (_ <- 0 until 20) {
      val t = randomTree(rng)
      val o = survOrder(t)
      val a = CostModel.cost(t, o, Approach.BvpCom, flatOutput = false, eps = 0.0).htProbes
      val b = CostModel.cost(t, o, Approach.BvpCom, flatOutput = false, eps = 0.1).htProbes
      val c = CostModel.cost(t, o, Approach.BvpCom, flatOutput = false, eps = 0.5).htProbes
      assert(a <= b + 1e-9 && b <= c + 1e-9)
    }
  }

  test("BVP+COM hash probes never exceed COM probes (bitvectors only prune)") {
    val rng = new Random(73)
    for (_ <- 0 until 30) {
      val t = randomTree(rng)
      val o = survOrder(t)
      val bvp = CostModel.cost(t, o, Approach.BvpCom, flatOutput = false, eps = 0.01).htProbes
      val com = CostModel.cost(t, o, Approach.Com, flatOutput = false).htProbes
      assert(bvp <= com + 1e-9)
    }
  }

  test("SJ+COM phase-2 probes never exceed plain COM probes") {
    // Full reduction can only shrink what each probe sees.
    val rng = new Random(79)
    for (_ <- 0 until 30) {
      val t = randomTree(rng)
      val o = survOrder(t)
      val sj  = CostModel.cost(t, o, Approach.SjCom, flatOutput = false).htProbes
      val com = CostModel.cost(t, o, Approach.Com, flatOutput = false).htProbes
      assert(sj <= com + 1e-6 * math.max(1.0, com))
    }
  }

  test("every approach charges the same flat-output expansion") {
    val rng = new Random(83)
    val t   = randomTree(rng)
    val o   = survOrder(t)
    val out = t.expectedOutput
    for (a <- Seq(Approach.Com, Approach.BvpCom, Approach.SjCom)) {
      val g = CostModel.cost(t, o, a, flatOutput = true).genTuples
      assert(math.abs(g - out) < 1e-6 * math.max(1.0, out), a.name)
    }
  }

  test("phase-1 semi-join probes are bounded by total relation size × children") {
    val rng = new Random(89)
    for (_ <- 0 until 20) {
      val t = randomTree(rng)
      val bound = (0 until t.n).map(i => t.size(i) * t.children(i).length).sum
      assert(SemiJoinModel.phase1Probes(t) <= bound + 1e-6)
    }
  }

  test("driver-level bitvector sweep is charged once per driver child") {
    val t = JoinTree.star(4, Seq(EdgeStats(0.5, 2), EdgeStats(0.5, 2), EdgeStats(0.5, 2)),
      driverSize = 100)
    val c = CostModel.cost(t, Seq(1, 2, 3), Approach.BvpStd, eps = 0.0)
    // bv probes: 100 + 50 + 25 = 175
    assert(math.abs(c.bvProbes - 175.0) < 1e-9)
  }

  test("star query: COM cost is fanout-independent (the §3.7 robustness core)") {
    val o = Seq(1, 2, 3)
    val a = JoinTree.star(4, Seq(EdgeStats(0.5, 1), EdgeStats(0.3, 1), EdgeStats(0.7, 1)), 100)
    val b = JoinTree.star(4, Seq(EdgeStats(0.5, 9), EdgeStats(0.3, 4), EdgeStats(0.7, 2)), 100)
    val ca = CostModel.cost(a, o, Approach.Com, flatOutput = false).htProbes
    val cb = CostModel.cost(b, o, Approach.Com, flatOutput = false).htProbes
    assert(math.abs(ca - cb) < 1e-9)
  }

  test("STD cost on the same star explodes with fanout (the contrast)") {
    val o = Seq(1, 2, 3)
    val a = JoinTree.star(4, Seq(EdgeStats(0.5, 1), EdgeStats(0.3, 1), EdgeStats(0.7, 1)), 100)
    val b = JoinTree.star(4, Seq(EdgeStats(0.5, 9), EdgeStats(0.3, 4), EdgeStats(0.7, 2)), 100)
    assert(CostModel.cost(b, o, Approach.Std).htProbes >
      2 * CostModel.cost(a, o, Approach.Std).htProbes)
  }

  test("exhaustive DP with STD step cost agrees with greedy rank ordering on stars") {
    // For star queries (no precedence interactions) rank ordering is the
    // classical optimum; the DP must agree.
    val rng = new Random(97)
    for (_ <- 0 until 10) {
      val t = JoinTree.star(6,
        Seq.fill(5)(EdgeStats(0.1 + rng.nextDouble() * 0.8, 1 + rng.nextDouble() * 5)), 100)
      val (_, dp) = Optimizer.exhaustive(t, stdStep(t))
      val g = CostModel.cost(t, Optimizer.greedy(t, Optimizer.Heuristic.RankOrdering),
        Approach.Std).htProbes
      assert(math.abs(dp - g) < 1e-6 * math.max(1.0, g))
    }
  }

  test("weighted totals rank SJ phase-1 against its savings consistently") {
    // Sanity: SJ never reports negative components.
    val rng = new Random(101)
    for (_ <- 0 until 20; a <- Seq(Approach.SjCom, Approach.SjStd)) {
      val t = randomTree(rng)
      val c = CostModel.cost(t, survOrder(t), a, flatOutput = true)
      assert(c.htProbes >= 0 && c.semiProbes >= 0 && c.genTuples >= 0)
    }
  }
}
