package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** Checks of the pure-math tables at their one configuration and of the
  * experiment runner; the Spark tables' gates are checked by `Run`. */
class ExperimentSmokeSpec extends AnyFunSuite {
  import ExperimentSmokeSpec.VsRow

  private lazy val t1 = T1JoinOrderOpt.run()
  private lazy val t4 = T4Simulation.run()

  test("T1 ratios are always >= 1 (optimal is a lower bound)") {
    assert(t1.forall(_.ratios.forall(_ >= 1.0 - 1e-9)))
  }

  test("T4 costs grow with match probability for every approach") {
    val byM = t4.filter(c => c.shape == "star7" && c.fo == 2.0).sortBy(_.m)
    for (a <- T4Simulation.approaches.map(_.name)) {
      assert(byM.head.costs(a) <= byM.last.costs(a), a)
    }
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
    val expected = (T4Simulation.table(t4) ++ T4Simulation.gates(t4).map(_.line))
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
