package perfbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** One traced interval. Times are epoch milliseconds (fractional), the
  * clock Spark's listener events use.
  */
final case class Span(id: Long, parent: Long, name: String, start: Double,
                      end: Double, attrs: Map[String, Double] = Map.empty) {
  def ms: Double = end - start
}

object Span {

  /** Total length of the union of `ivs`, each clipped to [lo, hi]. */
  def covered(ivs: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    var total  = 0.0
    var curEnd = lo
    for ((s0, e0) <- ivs.sortBy(_._1)) {
      val s = math.max(s0, curEnd)
      val e = math.min(e0, hi)
      if (e > s) { total += e - s; curEnd = e }
    }
    total
  }

  /** Self time of `s`: its duration minus the part of it that its child
    * spans cover.
    */
  def selfTime(s: Span, all: Seq[Span]): Double =
    s.ms - covered(all.filter(_.parent == s.id).map(c => (c.start, c.end)), s.start, s.end)
}

/** In-memory span recorder for the traced run: the benchmark records the
  * run, workload, query and call spans around its calls into the system;
  * the [[JobListener]] adds Spark job and stage spans under the call that
  * was current (by local property) when they were submitted.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1L
  private val t0Nanos = System.nanoTime()
  private val t0Epoch = System.currentTimeMillis().toDouble

  def now(): Double = t0Epoch + (System.nanoTime() - t0Nanos) / 1e6

  def newId(): Long = synchronized { val id = nextId; nextId += 1; id }

  def add(s: Span): Unit = synchronized { spans += s }

  def all: Seq[Span] = synchronized { spans.toList }

  /** Run `body` as a span named `name` under `parent`. */
  def span[A](parent: Long, name: String)(body: Long => A): (A, Span) = {
    val id    = newId()
    val start = now()
    val a     = body(id)
    val s     = Span(id, parent, name, start, now())
    add(s)
    (a, s)
  }
}

object JobListener {
  /** Local property that carries the id of the current call span. */
  val CallProperty = "perfbench.call"
}

/** Counts Spark work per call: jobs, tasks, executor run time, executor GC
  * time, shuffle bytes, and the job and stage intervals. Jobs and stages
  * are attributed through the [[JobListener.CallProperty]] local property,
  * which the benchmark sets before each call; jobs that arrive without it
  * are counted in `untaggedJobs`. Job spans hang under their call span,
  * stage spans under the job that first listed the stage.
  */
final class JobListener(tracer: Tracer) extends SparkListener {
  import JobListener.CallProperty

  private final case class JobRec(span: Long, call: Long, start: Double, checkpoint: Boolean)
  private val jobs     = mutable.HashMap.empty[Int, JobRec]
  private val stageJob = mutable.HashMap.empty[Int, JobRec]
  private var untagged = 0

  def untaggedJobs: Int = synchronized(untagged)

  private def callOf(p: java.util.Properties): Long =
    Option(p).flatMap(x => Option(x.getProperty(CallProperty))).map(_.toLong).getOrElse(-1L)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val call = callOf(e.properties)
    if (call < 0) untagged += 1
    else {
      val last = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name
      val rec  = JobRec(tracer.newId(), call, e.time.toDouble,
        last.startsWith("localCheckpoint at Executors"))
      jobs(e.jobId) = rec
      for (st <- e.stageIds if !stageJob.contains(st)) stageJob(st) = rec
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.remove(e.jobId).foreach { j =>
      tracer.add(Span(j.span, j.call, s"job ${e.jobId}", j.start, e.time.toDouble,
        Map("call" -> j.call.toDouble, "checkpoint" -> (if (j.checkpoint) 1.0 else 0.0))))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageJob.remove(info.stageId).foreach { j =>
      val m = info.taskMetrics
      val start = info.submissionTime.map(_.toDouble).getOrElse(j.start)
      val end   = info.completionTime.map(_.toDouble).getOrElse(start)
      tracer.add(Span(tracer.newId(), j.span, s"stage ${info.stageId}", start, end, Map(
        "call"       -> j.call.toDouble,
        "tasks"      -> info.numTasks.toDouble,
        "task_ms"    -> m.executorRunTime.toDouble,
        "gc_ms"      -> m.jvmGCTime.toDouble,
        "shuffle_mb" -> (m.shuffleWriteMetrics.bytesWritten +
          m.shuffleReadMetrics.totalBytesRead) / 1048576.0)))
    }
  }
}
