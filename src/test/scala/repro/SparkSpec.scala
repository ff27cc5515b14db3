package repro

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.util.QueryExecutionListener
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

  /** Runs `body` and returns its value with the plans of every Spark SQL
    * action it ran (count, collect, localCheckpoint, …), in order.
    */
  def recordPlans[A](body: => A): (A, Seq[SparkSpec.Recorded]) = {
    val plans = new ConcurrentLinkedQueue[SparkSpec.Recorded]
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.add(SparkSpec.Recorded(qe.optimizedPlan, SparkSpec.Aqe.stripAQEPlan(qe.executedPlan)))
      def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      val a = body
      drainListenerBus()
      (a, plans.asScala.toSeq)
    } finally spark.listenerManager.unregister(listener)
  }

  /** Runs `body` and returns its value with the Spark jobs it started, in
    * order, each by its call site (the name of its last stage).
    */
  def recordJobs[A](body: => A): (A, Seq[String]) = {
    val jobs = new ConcurrentLinkedQueue[(Int, String)]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add((e.jobId, if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name))
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val a      = body
      val marker = drainListenerBus()
      (a, jobs.asScala.toSeq.collect { case (id, site) if id != marker => site })
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  /** Blocks until the listener bus has delivered every event posted so far,
    * and returns the id of the marker job it ran to tell.
    * Query-execution events reach their listeners asynchronously, through
    * the bus's shared queue; a marker job's end event, delivered on that
    * queue after them, shows they have all been handled.
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
  private object Aqe extends AdaptiveSparkPlanHelper

  /** One action's plans: the optimized logical plan and the executed
    * physical plan, the final adaptive plan once the action has run.
    */
  final case class Recorded(optimized: LogicalPlan, executed: SparkPlan) {
    /** Every operator of `executed`, inside query stages and subqueries too. */
    def operators: Seq[SparkPlan] = Aqe.collectWithSubqueries(executed) { case p => p }
  }

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
