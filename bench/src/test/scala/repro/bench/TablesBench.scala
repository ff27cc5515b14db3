package repro.bench

import repro.SparkSpec
import repro.exp.Run

/** The evaluation tables T1–T8, one test per `Run.registry` entry, so
  * `sbt bench/test` runs what `runMain repro.exp.Run all` runs. Each test
  * prints its table and gate verdicts to stdout (`sbt bench/test | tee
  * bench_output.txt` captures the report) and fails if a gate fails. The
  * shared session is lazy, so T1, T4 and T8 start no Spark.
  */
class TablesBench extends SparkSpec {
  for ((name, table) <- Run.registry) test(name) {
    val report = table(() => spark)
    println()
    report.lines.foreach(println)
    println()
    if (report.failed.nonEmpty) fail(report.failed.map(_.line).mkString("\n"))
  }
}
