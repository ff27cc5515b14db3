package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class JoinTreeSpec extends AnyFunSuite {

  private val es = EdgeStats(0.5, 2.0)

  test("EdgeStats selectivity is m × fo") {
    assert(EdgeStats(0.5, 4.0).s == 2.0)
  }

  test("EdgeStats rejects out-of-range match probability") {
    intercept[IllegalArgumentException](EdgeStats(1.5, 1.0))
    intercept[IllegalArgumentException](EdgeStats(-0.1, 1.0))
  }

  test("EdgeStats rejects negative fanout") {
    for (fo <- Seq(-1.0, 0.0, 0.5))
      intercept[IllegalArgumentException](EdgeStats(0.5, fo))
  }

  test("star shape: all satellites are children of the driver") {
    val t = JoinTree.star(7, Seq.fill(6)(es))
    assert(t.n == 7)
    assert(t.children(0) == List(1, 2, 3, 4, 5, 6))
    assert((1 until 7).forall(t.parent(_) == 0))
  }

  test("centered path 11: two arms of depth 5 hang off the driver") {
    val t = JoinTree.centeredPath(11, Seq.fill(10)(es))
    assert(t.n == 11)
    assert(t.children(0).length == 2)
    assert(t.depth(5) == 5)
    assert(t.depth(10) == 5)
    assert((1 until 11).map(t.depth).max == 5)
  }

  test("snowflake 3-2 has 10 relations, driver has 3 children with 2 each") {
    val t = JoinTree.snowflake(3, 2, Seq.fill(9)(es))
    assert(t.n == 10)
    assert(t.children(0).length == 3)
    assert(t.children(0).forall(a => t.children(a).length == 2))
  }

  test("snowflake 5-1 has 11 relations") {
    val t = JoinTree.snowflake(5, 1, Seq.fill(10)(es))
    assert(t.n == 11)
    assert(t.children(0).length == 5)
    assert(t.children(0).forall(a => t.children(a).length == 1))
  }

  test("running example has the Fig 1 shape") {
    val t = JoinTree.runningExample(Seq.fill(5)(es))
    assert(t.n == 6)
    assert(t.children(0) == List(1, 4)) // R2, R5
    assert(t.children(1) == List(2, 3)) // R3, R4
    assert(t.children(4) == List(5))    // R6
  }

  test("pathFromRoot returns the inclusive root→node path") {
    val t = JoinTree.runningExample(Seq.fill(5)(es))
    assert(t.pathFromRoot(5) == List(0, 4, 5))
    assert(t.pathFromRoot(0) == List(0))
  }

  test("eligible respects precedence") {
    val t = JoinTree.runningExample(Seq.fill(5)(es))
    assert(t.eligible(0x1) == List(1, 4))   // {0}
    assert(t.eligible(0x3) == List(2, 3, 4)) // {0, 1}
    assert(t.eligible(0x1f) == List(5))      // {0, 1, 2, 3, 4}
  }

  test("a tree fits the Int bitmask: 32 relations plan, 33 are rejected") {
    val big = JoinTree.star(32, Seq.fill(31)(es))
    for (h <- Optimizer.Heuristic.all)
      CostModel.validateOrder(big, Optimizer.greedy(big, h))
    intercept[IllegalArgumentException](JoinTree.star(33, Seq.fill(32)(es)))
  }

  test("generative sizes multiply selectivities down the tree") {
    val t = JoinTree(Seq((0, 0.5, 4.0), (1, 0.5, 2.0)), driverSize = 1000)
    assert(t.size(0) == 1000)
    assert(t.size(1) == 2000)   // 1000 × 0.5 × 4
    assert(t.size(2) == 2000)   // 2000 × 0.5 × 2
  }

  test("expectedOutput multiplies every edge selectivity") {
    val t = JoinTree(Seq((0, 0.5, 4.0), (0, 0.5, 2.0)), driverSize = 100)
    assert(math.abs(t.expectedOutput - 100 * 2.0 * 1.0) < 1e-9)
  }

  test("node numbering must be topological") {
    intercept[IllegalArgumentException] {
      new JoinTree(Array(-1, 2, 0), Array.fill(3)(EdgeStats(1, 1)), Array.fill(3)(1.0), 1.0)
    }
  }

  test("random trees are valid and match the requested size") {
    val rng = new Random(1)
    for (_ <- 0 until 50) {
      val n = 5 + rng.nextInt(14)
      val t = JoinTree.random(n, (0.1, 0.5), (1, 10), rng)
      assert(t.n == n)
      assert((1 until n).forall(i => t.parent(i) < i))
      assert((1 until n).forall(i => t.stats(i).m >= 0.1 && t.stats(i).m <= 0.5))
      assert((1 until n).forall(i => t.stats(i).fo >= 1.0 && t.stats(i).fo <= 10.0))
    }
  }

  test("random tree root has at least 2 children for n >= 3") {
    val rng = new Random(2)
    for (_ <- 0 until 20) {
      val t = JoinTree.random(10, (0.1, 0.5), (1, 5), rng)
      assert(t.children(0).length >= 2)
    }
  }
}
