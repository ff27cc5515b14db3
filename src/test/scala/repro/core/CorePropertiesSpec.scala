package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import scala.util.Random

/** ScalaCheck-generator-driven properties over the cost model and
  * optimizers. (scalatestplus is not on the offline classpath, so sampling
  * is driven manually with a fixed seed — deterministic and dependency-free.)
  */
class CorePropertiesSpec extends AnyFunSuite {

  private def samples[A](g: Gen[A], n: Int): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(1234L + i)))

  private val statGen = for {
    m  <- Gen.choose(0.01, 0.99)
    fo <- Gen.choose(1.0, 10.0)
  } yield EdgeStats(m, fo)

  private val treeGen: Gen[JoinTree] = for {
    n    <- Gen.choose(3, 9)
    seed <- Gen.choose(0L, 100000L)
    mLo  <- Gen.choose(0.05, 0.4)
    foHi <- Gen.choose(1.5, 9.0)
  } yield JoinTree.random(n, (mLo, math.min(0.95, mLo + 0.4)), (1.0, foHi),
    new Random(seed), driverSize = 100)

  private val treeAndSeed: Gen[(JoinTree, Long)] =
    for { t <- treeGen; s <- Gen.choose(0L, 1000L) } yield (t, s)

  test("property: selectivity factorizes as m × fo") {
    for (st <- samples(statGen, 100))
      assert(math.abs(st.s - st.m * st.fo) < 1e-12)
  }

  test("property: COM probes are bounded by STD probes for every order") {
    for ((tree, s) <- samples(treeAndSeed, 50)) {
      val order = Optimizer.randomOrder(tree, new Random(s))
      val com = CostModel.cost(tree, order, Approach.Com, flatOutput = false).htProbes
      val std = CostModel.cost(tree, order, Approach.Std).htProbes
      assert(com <= std + 1e-6)
    }
  }

  test("property: survival probabilities lie in [0, 1]") {
    for (tree <- samples(treeGen, 50)) {
      val full = (1 << tree.n) - 1
      val s    = Survival.treeSurvival(tree, full)
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  test("property: per-step probes are non-negative and at most the flat count") {
    for ((tree, s) <- samples(treeAndSeed, 50)) {
      val order = Optimizer.randomOrder(tree, new Random(s))
      var eval  = 1
      var flat  = tree.driverSize
      for (l <- order) {
        val p = Survival.probesCom(tree, eval, l)
        assert(p >= 0.0)
        assert(p <= flat + 1e-6)
        eval |= Survival.bit(l)
        flat *= tree.stats(l).s
      }
    }
  }

  test("property: exhaustive DP cost is a lower bound on every heuristic") {
    for (tree <- samples(treeGen, 30)) {
      val (_, opt) = Optimizer.exhaustiveCom(tree)
      for (h <- Optimizer.Heuristic.all) {
        val c = CostModel.cost(tree, Optimizer.greedy(tree, h), Approach.Com,
          flatOutput = false).htProbes
        assert(c >= opt - 1e-6 * math.max(1.0, opt))
      }
    }
  }

  test("property: exhaustive DP cost is a lower bound on random orders") {
    for ((tree, s) <- samples(treeAndSeed, 50)) {
      val (_, opt) = Optimizer.exhaustiveCom(tree)
      val c = CostModel.cost(tree, Optimizer.randomOrder(tree, new Random(s)), Approach.Com,
        flatOutput = false).htProbes
      assert(c >= opt - 1e-6 * math.max(1.0, opt))
    }
  }

  test("property: adjusted SJ statistics stay in range") {
    val g = for { st <- statGen; r <- Gen.choose(0.01, 1.0) } yield (st, r)
    for ((st, ratio) <- samples(g, 100)) {
      val m  = SemiJoinModel.adjustedM(st.m, st.fo, ratio)
      val fo = SemiJoinModel.adjustedFo(st.fo, ratio)
      assert(m >= 0.0 && m <= st.m + 1e-12)
      assert(fo >= 1.0 - 1e-9 && fo <= st.fo + 1e-12)
    }
  }

  test("property: reduction ratios are probabilities") {
    for (tree <- samples(treeGen, 50)) {
      val red = SemiJoinModel.reductionRatios(tree)
      assert(red.forall(r => r >= 0.0 && r <= 1.0 + 1e-12))
    }
  }

  test("property: BVP+STD with eps=0 never exceeds STD hash probes") {
    for ((tree, s) <- samples(treeAndSeed, 50)) {
      val order = Optimizer.randomOrder(tree, new Random(s))
      val bvp = CostModel.cost(tree, order, Approach.BvpStd, eps = 0.0).htProbes
      val std = CostModel.cost(tree, order, Approach.Std).htProbes
      assert(bvp <= std + 1e-6)
    }
  }

  test("property: six approaches all agree that fo=1 trees have equal COM/STD probes") {
    for (tree0 <- samples(treeGen, 20)) {
      val t = new JoinTree(tree0.parent,
        tree0.stats.map(e => EdgeStats(e.m, 1.0)), tree0.probeCost, tree0.driverSize)
      val order = Optimizer.greedy(t, Optimizer.Heuristic.SurvivalProb)
      val com = CostModel.cost(t, order, Approach.Com, flatOutput = false).htProbes
      val std = CostModel.cost(t, order, Approach.Std).htProbes
      assert(math.abs(com - std) < 1e-6)
    }
  }
}
