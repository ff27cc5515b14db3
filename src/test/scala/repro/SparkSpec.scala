package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run,
  * configured by `repro.Spark` exactly as the experiment runner's.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** A result as a bag: each distinct row with its multiplicity, so a
    * lost or duplicated row changes it.
    */
  def bag(df: DataFrame): Map[Seq[Any], Int] =
    df.collect().toSeq.map(_.toSeq).groupMapReduce(identity)(_ => 1)(_ + _)
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Spark.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
