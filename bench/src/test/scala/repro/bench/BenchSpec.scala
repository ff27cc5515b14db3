package repro.bench

import repro.SparkSpec

/** Base trait for benchmark suites: shares the test SparkSession (built
  * lazily, so the pure cost-model suites never start it) and funnels every
  * printed table through stdout so `sbt bench/test | tee bench_output.txt`
  * captures the full report.
  */
trait BenchSpec extends SparkSpec {
  def emit(lines: Seq[String]): Unit = {
    println()
    lines.foreach(println)
    println()
  }
}
