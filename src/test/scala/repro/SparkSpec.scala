package repro

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

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

  /** Runs `body` and returns its value with the Spark jobs it started, in
    * order.
    */
  def recordJobs[A](body: => A): (A, Seq[SparkSpec.Job]) = {
    val jobs = new ConcurrentLinkedQueue[(Int, SparkSpec.Job)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add((e.jobId, SparkSpec.Job(
          if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name,
          e.stageInfos.length - 1,
          e.stageInfos.sortBy(_.stageId).map(_.numTasks))))
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val a      = body
      val marker = drainListenerBus()
      (a, jobs.asScala.toSeq.collect { case (id, job) if id != marker => job })
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  /** Blocks until the listener bus has delivered every event posted so far,
    * and returns the id of the marker job it ran to tell.
    * Job events reach their listeners asynchronously, through the bus's
    * shared queue; a marker job's end event, delivered on that queue after
    * them, shows they have all been handled.
    */
  private def drainListenerBus(): Int = {
    val sc    = spark.sparkContext
    val ended = ConcurrentHashMap.newKeySet[Int]()
    val marker = new SparkListener {
      override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.add(e.jobId)
    }
    sc.addSparkListener(marker)
    try {
      val job = sc.parallelize(Seq(0), 1).countAsync()
      job.get()
      val deadline = System.nanoTime() + 60L * 1000000000L
      while (!ended.contains(job.jobIds.head)) {
        assert(System.nanoTime() < deadline, "listener bus did not drain in 60 s")
        Thread.sleep(5)
      }
      job.jobIds.head
    } finally sc.removeSparkListener(marker)
  }
}

object SparkSpec {
  /** A Spark job: its call site (the name of its last stage), how many of
    * its stages write a shuffle (all but its result stage) and each stage's
    * task count, in stage order. A job over no partition has no stage.
    */
  final case class Job(site: String, shuffleStages: Int, stageTasks: Seq[Int])

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
