package repro.exp

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ListMap

/** Runs evaluation tables by name and prints them:
  *
  * {{{
  * sbt "runMain repro.exp.Run T2"        # one table
  * sbt "runMain repro.exp.Run T1 T4"     # several, in turn
  * sbt "runMain repro.exp.Run all"       # T1 … T8
  * }}}
  *
  * Each table has one configuration, the one its `bench/` suite asserts on.
  * A Spark session starts only when a chosen table executes plans, so T1,
  * T4 and T8 run without one.
  */
object Run {

  /** A table's printed lines; the argument builds the Spark session on first use. */
  type Table = (() => SparkSession) => Seq[String]

  val registry: ListMap[String, Table] = ListMap(
    "T1" -> (_ => T1JoinOrderOpt.table(T1JoinOrderOpt.run())),
    "T2" -> (spark => T2Synthetic.table(T2Synthetic.run(spark()))),
    "T3" -> (spark => T3Ce.table(T3Ce.run(spark()))),
    "T4" -> (_ => T4Simulation.table(T4Simulation.run())),
    "T5" -> (spark => T5CostValidation.table(T5CostValidation.run(spark()))),
    "T6" -> (spark => T6Robustness.table(T6Robustness.run(spark()))),
    "T7" -> (spark => T7Estimation.table(T7Estimation.run(spark()))),
    "T8" -> (_ => T8RobustSim.table(T8RobustSim.run())),
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

  def main(args: Array[String]): Unit = {
    val chosen =
      try select(args.toSeq)
      catch { case e: IllegalArgumentException => Console.err.println(e.getMessage); sys.exit(2) }
    var session = Option.empty[SparkSession]
    val spark = () => session.getOrElse {
      val s = repro.Spark.session("repro-exp")
      session = Some(s)
      s
    }
    try for (((_, table), i) <- chosen.zipWithIndex) {
      if (i > 0) println()
      table(spark).foreach(println)
    } finally session.foreach(_.stop())
  }
}
