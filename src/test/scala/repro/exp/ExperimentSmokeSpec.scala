package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** Fast sanity checks of the pure-math experiment harnesses and of the
  * experiment runner; the gates of the Spark tables run in bench/. */
class ExperimentSmokeSpec extends AnyFunSuite {
  import ExperimentSmokeSpec.VsRow

  test("T1 harness: survival heuristic is the best of the three (small run)") {
    val results = T1JoinOrderOpt.run(trees = 10, maxNodes = 10, seed = 3L)
    assert(results.nonEmpty)
    val medians = T1JoinOrderOpt.medians(results)
    // survival must not be worse than rank ordering in the median
    for (mr <- T1JoinOrderOpt.mRanges) {
      assert(medians((mr, "survival")) <= medians((mr, "rank")) + 1e-9,
        s"range $mr: ${medians((mr, "survival"))} vs ${medians((mr, "rank"))}")
    }
    assert(T1JoinOrderOpt.table(results).nonEmpty)
  }

  test("T1 ratios are always >= 1 (optimal is a lower bound)") {
    val results = T1JoinOrderOpt.run(trees = 5, maxNodes = 9, seed = 5L)
    assert(results.forall(_.ratios.forall(_ >= 1.0 - 1e-9)))
  }

  test("T4 harness: COM beats STD variants at high match probabilities") {
    val cells = T4Simulation.run()
    assert(cells.nonEmpty)
    val hi = cells.filter(c => c.m >= 0.8 && c.fo == 5.0)
    for (c <- hi) {
      assert(c.costs("COM") <= c.costs("BVP+STD"),
        s"${c.shape} m=${c.m}: ${c.costs}")
    }
    assert(T4Simulation.table(cells).nonEmpty)
  }

  test("T4 harness: at low match probability BVP+COM beats plain COM") {
    val cells = T4Simulation.run()
    val lo = cells.filter(c => c.m <= 0.2 && c.fo == 5.0)
    val better = lo.count(c => c.costs("BVP+COM") <= c.costs("COM"))
    assert(better >= lo.size / 2, s"BVP+COM better in $better of ${lo.size}")
  }

  test("T4 costs grow with match probability for every approach") {
    val cells = T4Simulation.run().filter(c => c.shape == "star7" && c.fo == 2.0)
    val byM = cells.sortBy(_.m)
    for (a <- T4Simulation.approaches.map(_.name)) {
      assert(byM.head.costs(a) <= byM.last.costs(a), a)
    }
  }

  test("T8 harness: high error inflates the selectivity model's penalty") {
    val cells = T8RobustSim.run(nJoins = 8, trials = 50, seed = 7L)
    assert(cells.nonEmpty)
    val lowErr  = cells.filter(_.err.startsWith("low"))
    val highErr = cells.filter(_.err.startsWith("high"))
    assert(Tables.mean(highErr.map(_.stdMeanPct)) >= Tables.mean(lowErr.map(_.stdMeanPct)))
    assert(T8RobustSim.table(cells).nonEmpty)
  }

  test("T8 harness: COM model penalties never blow past the selectivity model on average") {
    val cells = T8RobustSim.run(nJoins = 8, trials = 50, seed = 9L)
    val agg = Tables.mean(cells.map(c => c.comMeanPct - c.stdMeanPct))
    assert(agg <= 1.0, s"aggregate mean difference $agg")
  }

  test("the runner's registry lists exactly T1 to T8, in order") {
    assert(Run.registry.keys.toSeq == (1 to 8).map(i => s"T$i"))
  }

  test("the runner rejects an unknown table and lists the valid names") {
    val e = intercept[IllegalArgumentException](Run.select(Seq("T9")))
    assert(e.getMessage.contains("T9"))
    for (name <- Run.registry.keys) assert(e.getMessage.contains(name), name)
  }

  test("Run T4 prints T4Simulation.table(T4Simulation.run()) without Spark") {
    val out    = new java.io.ByteArrayOutputStream
    val status = Console.withOut(out)(Run.run(Seq("T4")))
    val cells  = T4Simulation.run()
    val expected = (T4Simulation.table(cells) ++ T4Simulation.gates(cells).map(_.line))
      .map(_ + System.lineSeparator).mkString
    assert(out.toString("UTF-8") == expected)
    assert(status == 0)
  }

  test("T1, T4 and T8 hold every gate at full configuration, without Spark") {
    for (name <- Seq("T1", "T4", "T8")) {
      val report = Run.registry(name)(() => fail(s"$name must not start Spark"))
      assert(report.gates.nonEmpty, name)
      for (g <- report.gates) assert(g.holds.contains(true), s"$name: ${g.line}")
    }
  }

  test("vsComTable divides each ok row's probes by the ok COM row of its query") {
    val rows = Seq(
      VsRow("q1", "STD", "ok", 300.0),
      VsRow("q1", "COM", "ok", 100.0),
      VsRow("q1", "BVP+STD", "TIMEOUT", -1.0),
      VsRow("q2", "STD", "ok", 50.0),
      VsRow("q2", "COM", "TIMEOUT", -1.0))
    val expected = Tables.render("t",
      Seq("query", "approach", "status", "weighted probes", "probes/COM"),
      Seq(
        Seq("q1", "STD", "ok", "300.0", "3.000"),
        Seq("q1", "COM", "ok", "100.0", "1.000"),
        Seq("q1", "BVP+STD", "TIMEOUT", "-", "-"),
        Seq("q2", "STD", "ok", "50.0", "-"),
        Seq("q2", "COM", "TIMEOUT", "-", "-")))
    assert(Harness.vsComTable("t", Seq("query", "approach"), rows) == expected)
  }

  test("Tables.percentile and render behave") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(Tables.percentile(xs, 50) == 2.0)
    assert(Tables.percentile(xs, 100) == 4.0)
    val t = Tables.render("x", Seq("a", "b"), Seq(Seq("1", "2")))
    assert(t.length == 4)
  }

  test("Tables.pearson on a perfect linear relation is 1") {
    val xs = Seq(1.0, 2.0, 3.0)
    assert(math.abs(Tables.pearson(xs, xs.map(_ * 3 + 1)) - 1.0) < 1e-12)
  }
}

object ExperimentSmokeSpec {
  /** A hand-built `vsComTable` row: one query, COM as the base. */
  final case class VsRow(query: String, approach: String, status: String,
                         weighted: Double) extends VsCom {
    def key: (String, String) = (query, "")
    def cells: Seq[String]    = Seq(query, approach)
    def isBase: Boolean       = approach == "COM"
  }
}
