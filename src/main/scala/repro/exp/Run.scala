package repro.exp

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ListMap

/** Runs evaluation tables by name and prints each, followed by one line
  * per gate (holds, FAILS or skipped):
  *
  * {{{
  * sbt "runMain repro.exp.Run T2"        # one table
  * sbt "runMain repro.exp.Run T1 T4"     # several, in turn
  * sbt "runMain repro.exp.Run all"       # T1 … T8
  * }}}
  *
  * It exits 1 if a gate fails and 2 for a missing or unknown name. It is
  * the one way to print a table and check its gates, and each table has
  * one configuration. A Spark session starts only when a chosen table
  * executes plans, so T1, T4 and T8 run without one.
  */
object Run {

  /** A table's printed lines and its gates' verdicts. */
  final case class Report(table: Seq[String], gates: Seq[Gate]) {
    /** The table followed by one line per gate. */
    def lines: Seq[String] = table ++ gates.map(_.line)
    def failed: Seq[Gate]  = gates.filter(_.holds.contains(false))
  }

  /** A table's report; the argument builds the Spark session on first use. */
  type Table = (() => SparkSession) => Report

  private def report[R](rows: R)(table: R => Seq[String], gates: R => Seq[Gate]): Report =
    Report(table(rows), gates(rows))

  val registry: ListMap[String, Table] = ListMap(
    "T1" -> (_ => report(T1JoinOrderOpt.run())(T1JoinOrderOpt.table, T1JoinOrderOpt.gates)),
    "T2" -> (spark => report(T2Synthetic.run(spark()))(T2Synthetic.table, T2Synthetic.gates)),
    "T3" -> (spark => report(T3Ce.run(spark()))(T3Ce.table, T3Ce.gates)),
    "T4" -> (_ => report(T4Simulation.run())(T4Simulation.table, T4Simulation.gates)),
    "T5" -> (spark => report(T5CostValidation.run(spark()))(T5CostValidation.table, T5CostValidation.gates)),
    "T6" -> (spark => report(T6Robustness.run(spark()))(T6Robustness.table, T6Robustness.gates)),
    "T7" -> (spark => report(T7Estimation.run(spark()))(T7Estimation.table, T7Estimation.gates)),
    "T8" -> (_ => report(T8RobustSim.run())(T8RobustSim.table, T8RobustSim.gates)),
  )

  /** The tables `names` ask for, in order; `all` stands for every table. */
  def select(names: Seq[String]): Seq[(String, Table)] = {
    val valid = (registry.keys.toSeq :+ "all").mkString(", ")
    if (names.isEmpty) throw new IllegalArgumentException(s"name a table: $valid")
    names.flatMap {
      case "all" => registry.toSeq
      case name  => Seq(name -> registry.getOrElse(name,
        throw new IllegalArgumentException(s"unknown table '$name'; valid names: $valid")))
    }
  }

  /** Prints the reports of the tables `names` ask for and returns the exit
    * status: 0 if no gate fails, 1 if one does, 2 for a missing or unknown
    * name.
    */
  def run(names: Seq[String]): Int = {
    val chosen =
      try select(names)
      catch { case e: IllegalArgumentException => Console.err.println(e.getMessage); return 2 }
    var session = Option.empty[SparkSession]
    val spark = () => session.getOrElse {
      val s = repro.Spark.session("repro-exp")
      session = Some(s)
      s
    }
    val reports =
      try chosen.zipWithIndex.map { case ((_, table), i) =>
        if (i > 0) println()
        val r = table(spark)
        r.lines.foreach(println)
        r
      } finally session.foreach(_.stop())
    if (reports.exists(_.failed.nonEmpty)) 1 else 0
  }

  def main(args: Array[String]): Unit = {
    val status = run(args.toSeq)
    if (status != 0) sys.exit(status)
  }
}
