package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.json4s.{JArray, JDouble, JObject, JValue}
import org.json4s.jackson.JsonMethods.{compact, render}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.core.{Approach, CostModel, Optimizer, Weights}
import repro.data.{TreeData, TreeQuery}
import repro.engine.Engine
import repro.exp.Tables
import repro.rules.ManyToManyReorder

/** Command-line options, as `run.py` passes them. */
final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                         outDir: String, rev: String)

/** One generated query of a workload, with its survival-heuristic order
  * and its exact expected result.
  */
final case class Query(name: String, q: TreeQuery, order: List[Int], expected: Expected)

/** Highest heap in use after a garbage collection, from GC notifications. */
object HeapWatch {
  @volatile private var peak = 0L
  private lazy val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  def install(): Unit =
    for (gc <- ManagementFactory.getGarbageCollectorMXBeans.asScala) gc match {
      case e: NotificationEmitter =>
        e.addNotificationListener(new NotificationListener {
          def handleNotification(n: Notification, hb: Any): Unit =
            if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
              val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
              val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
                .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
              if (used > peak) peak = used
            }
        }, null, null)
      case _ =>
    }

  /** Forget the readings so far: the next peak covers only what follows. */
  def reset(): Unit = peak = 0L

  def peakMb: Double = peak / 1048576.0
}

/** One benchmark run: a single client executes the workload's queries one
  * at a time (closed loop) on a local Spark session with one task thread
  * per core.
  *
  * Phases: plan search (no Spark), set-up, exact references, a checked
  * warm-up round, then timed rounds over every query and strategy until
  * the time budget is spent (at least two; one if traced). With `trace`,
  * the timed calls are traced (call spans, Spark job and stage spans), a
  * counted pass follows the timed rounds, the Catalyst rule's planning is
  * timed, and per-layer metrics are reported instead of end-to-end ones.
  */
final class Bench(o: Options) {
  import Bench._

  private val workload = Workloads.byName(o.workload)
  private val tracer   = new Tracer
  private val runSpan  = tracer.newId()
  private val weights  = Weights()
  private var spark: SparkSession = _
  private var attempted = 0L
  private var failed    = 0L

  private val t0 = System.nanoTime()
  private def log(msg: String): Unit = println(f"# [${(System.nanoTime() - t0) / 1e9}%6.1f s] $msg")

  // ---------------------------------------------------------------- set-up

  private def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", Cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Generate, persist and materialize every query's relations. */
  private def generate(): Seq[(String, TreeQuery)] =
    workload.shapes.zipWithIndex.map { case (shape, si) =>
      val q = TreeData.generate(spark, workload.tree(shape), o.seed * 31L + si)
      q.rels.foreach { r => r.persist(); r.count() }
      (shape.name, q)
    }

  // ------------------------------------------------------------ strategies

  private def chain(q: TreeQuery): DataFrame = {
    var cur = q.rels(0)
    for (l <- 1 until q.tree.n)
      cur = cur.join(q.rels(l), col(q.parentCol(l)) === col(q.childCol(l)))
    cur.select(q.outputCols.map(col): _*)
  }

  private def rule(q: TreeQuery): ManyToManyReorder = ManyToManyReorder { (pc, cc) =>
    (1 until q.tree.n).find(i => q.parentCol(i) == pc && q.childCol(i) == cc).map(q.tree.stats(_))
  }

  /** Run `body` with the reorder rule injected for `q` only. */
  private def withRule[A](q: TreeQuery)(body: => A): A = {
    spark.experimental.extraOptimizations = Seq(rule(q))
    try body finally spark.experimental.extraOptimizations = Nil
  }

  private final case class Exec(rows: Long, flat: Option[DataFrame], weighted: Double)

  /** One call into the system for strategy `s`: the call a user makes. */
  private def execute(query: Query, s: String, counting: Boolean = false): Exec = s match {
    case Metrics.Catalyst =>
      val df = chain(query.q)
      Exec(withRule(query.q)(df.count()), Some(df), Double.NaN)
    case Factorized =>
      val r = Engine.run(query.q, query.order, Approach.Com, counting = false, flatOutput = false)
      Exec(r.log.outRows, None, Double.NaN)
    case k =>
      val r = Engine.run(query.q, query.order, approachOf(k), counting)
      Exec(r.log.outRows, r.flat, r.log.weighted(weights))
  }

  private def checksum(query: Query, s: String, flat: DataFrame): Checksum =
    if (s == Metrics.Catalyst) withRule(query.q)(Checksum.ofFrame(flat, query.q.outputCols))
    else Checksum.ofFrame(flat, query.q.outputCols)

  /** Count one execution and check it against the reference: the row
    * count always, the bag checksum when `ck` is given.
    */
  private def check(query: Query, s: String, rows: Long, ck: Option[Checksum]): Unit = {
    attempted += 1
    val want = if (s == Factorized) query.expected.aliveEntries else query.expected.flat.rows
    if (rows != want || ck.exists(_ != query.expected.flat)) {
      failed += 1
      log(s"FAILED ${query.name} $s: rows $rows (want $want), checksum $ck (want ${query.expected.flat})")
    }
  }

  private def processCpuNanos(): Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  // ------------------------------------------------------------------- run

  /** Runs the benchmark, prints the result line, and returns whether every
    * check passed.
    */
  def run(): Boolean = {
    HeapWatch.install()
    val runStart = tracer.now()

    val plan = PlanSearch.run(PlanSearch.trees(o.seed), withBvp = o.trace)
    log(f"plan search: ${plan.exhaustiveMs.length} trees, ${plan.exhaustiveMs.sum}%.0f ms in Algorithm 1")

    // Set-up, repeated so its median is steady: a fresh session, then the
    // workload's relations generated, persisted and materialized.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val genMs  = mutable.ArrayBuffer.empty[Double]
    var built: Seq[(String, TreeQuery)] = Nil
    for (rep <- 0 until (if (o.trace) 1 else SetupReps)) {
      if (rep > 0) {
        built.foreach(_._2.rels.foreach(_.unpersist(blocking = true)))
        spark.stop()
      }
      val (_, total) = timed {
        spark = session()
        val (b, g) = timed(generate())
        built = b
        genMs += g
      }
      setupS += total / 1000.0
    }
    log(s"setup_s per repetition: ${setupS.map(x => f"$x%.3f").mkString(", ")}")
    val cachedMb = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1048576.0
    val relRows  = built.map(_._2.rels.map(_.count()).sum).sum

    val queries = built.map { case (name, q) =>
      val exp = Reference.expected(q)
      log(s"$name: n=${q.tree.n} driver=${q.tree.driverSize.toLong} out=${exp.flat.rows} alive=${exp.aliveEntries}")
      Query(name, q, Optimizer.greedy(q.tree, Optimizer.Heuristic.SurvivalProb), exp)
    }
    // A query with an empty result would make every check pass trivially.
    val empty = queries.filter(_.expected.flat.rows == 0)
    if (empty.nonEmpty) {
      log(s"REFUSED: empty reference result for ${empty.map(_.name).mkString(", ")}")
      return false
    }

    val strategies = Metrics.strategyKeys ++ (if (o.trace) Seq(Factorized) else Nil)

    // Warm-up: every call made once, one at a time, with the full bag
    // checksum.
    for (query <- queries; s <- strategies) {
      val e = execute(query, s)
      check(query, s, e.rows, e.flat.map(checksum(query, s, _)))
    }
    // Let background garbage collection settle, so the first timed call
    // does not pay for the warm-up's, and let the heap peak cover the timed
    // rounds only.
    System.gc()
    Thread.sleep(200)
    HeapWatch.reset()
    log("warm-up done")

    // Timed rounds, all traced in a traced run. The end-to-end metrics come
    // from untraced runs only; a traced run's `trace.call_ms` against the
    // untraced runs' strategy times gives the tracing overhead.
    val samples  = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Span]]
    val listener = new JobListener(tracer)
    val sc       = spark.sparkContext
    if (o.trace) sc.addSparkListener(listener)
    val loopStart = System.nanoTime()
    var round = 0
    val callCpu  = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Double]]
    def call(query: Query, s: String, parent: Long): Unit = {
      val cpuStart = processCpuNanos()
      val (e, span) =
        if (o.trace) tracer.span(parent, s) { id =>
          sc.setLocalProperty(JobListener.CallProperty, id.toString)
          try execute(query, s) finally sc.setLocalProperty(JobListener.CallProperty, null)
        }
        else {
          val start = tracer.now()
          val e     = execute(query, s)
          (e, Span(0L, parent, s, start, tracer.now()))
        }
      callCpu.getOrElseUpdate((query.name, s), mutable.ArrayBuffer.empty) +=
        (processCpuNanos() - cpuStart) / 1e9
      check(query, s, e.rows, None)
      samples.getOrElseUpdate((query.name, s), mutable.ArrayBuffer.empty) += span
    }
    val roundMs  = mutable.ArrayBuffer.empty[Double]
    val roundCpu = mutable.ArrayBuffer.empty[Double]
    def rounds(workloadSpan: Long): Unit =
      while (round < (if (o.trace) 1 else MinRounds) || (System.nanoTime() - loopStart) / 1e9 < o.seconds) {
        val roundStart = System.nanoTime()
        val cpuStart   = processCpuNanos()
        for (query <- queries) {
          if (o.trace) tracer.span(workloadSpan, s"query ${query.name} round $round") { qId =>
            strategies.foreach(call(query, _, qId))
          }
          else strategies.foreach(call(query, _, 0L))
        }
        roundMs += (System.nanoTime() - roundStart) / 1e6
        roundCpu += (processCpuNanos() - cpuStart) / 1e9
        round += 1
        log(f"timed round $round: ${roundMs.last}%.0f ms wall, ${roundCpu.last}%.2f s CPU")
      }
    if (o.trace) {
      tracer.span(runSpan, s"workload ${workload.name}")(rounds)
      ListenerDrain(sc)
      sc.removeSparkListener(listener)
    } else rounds(0L)
    log(s"timed rounds: $round in ${(System.nanoTime() - loopStart) / 1e9} s")
    // A last collection, so a round without one still gives a reading.
    System.gc()
    Thread.sleep(200)
    val peakHeapMb = HeapWatch.peakMb

    // Counted pass (traced runs only), after the timed rounds so every
    // approach is warm: exact probes, with the full bag checksum.
    final case class Counted(ms: Double, probes: Double, model: Double)
    val counted = if (!o.trace) Nil else for (query <- queries; a <- Approach.all) yield {
      val k = Metrics.approachKey(a)
      val (e, ms) = timed(execute(query, k, counting = true))
      check(query, k, e.rows, e.flat.map(checksum(query, k, _)))
      log(f"counted ${query.name} $k: $ms%.0f ms")
      (k, Counted(ms, e.weighted, CostModel.cost(query.q.tree, query.order, a).total(weights)))
    }

    def sumOverQueries(f: String => Double): Double = queries.map(q => f(q.name)).sum
    def median(xs: Iterable[Double]): Double = Tables.percentile(xs.toSeq, 50)
    def geomean(xs: Seq[Double]): Double = math.exp(Tables.mean(xs.map(math.log)))

    val metrics: Seq[(String, Double)] =
      if (!o.trace) Seq(
        "setup_s"         -> median(setupS),
        // Each call at its least over the rounds: a busy host only ever
        // adds to a call's CPU time.
        "round_cpu_s"     -> callCpu.values.map(_.min).sum,
        "plan_cost_ratio" -> geomean(plan.ratios(Optimizer.Heuristic.SurvivalProb.name)),
        "peak_heap_mb"    -> peakHeapMb,
      )
      else {
        val spans = tracer.all
        val byParent = spans.groupBy(_.parent)
        final case class CallStats(jobs: Double, tasks: Double, checkpoints: Double, jobMs: Double,
                                   driverMs: Double, taskMs: Double, shuffleMb: Double, gcMs: Double,
                                   outsideMs: Double)
        def callStats(c: Span): CallStats = {
          val jobs   = byParent.getOrElse(c.id, Nil)
          val stages = jobs.flatMap(j => byParent.getOrElse(j.id, Nil))
          def attr(xs: Seq[Span], k: String) = xs.map(_.attrs.getOrElse(k, 0.0)).sum
          val jobMs  = Span.covered(jobs.map(j => (j.start, j.end)), c.start, c.end)
          CallStats(jobs.size, attr(stages, "tasks"), attr(jobs, "checkpoint"), jobMs,
            Span.selfTime(c, spans), attr(stages, "task_ms"), attr(stages, "shuffle_mb"),
            attr(stages, "gc_ms"), jobs.map(j => j.ms - Span.covered(Seq((j.start, j.end)), c.start, c.end)).sum)
        }
        val stats = samples.map { case (k, calls) => k -> calls.map(callStats) }
        def perCall(s: String)(f: CallStats => Double): Double =
          sumOverQueries(q => median(stats((q, s)).map(f)))
        val rulesOpt = queries.map { query =>
          val plain  = chain(query.q).queryExecution.optimizedPlan
          val ms     = (0 until 3).map(_ => withRule(query.q)(timed(chain(query.q).queryExecution.optimizedPlan)))
          (ms.map(_._2), if (ms.head._1.canonicalized != plain.canonicalized) 1.0 else 0.0)
        }
        Seq(
          "weighted_probes"        -> counted.map(_._2.probes).sum,
          "data.generate_ms"       -> median(genMs),
          "data.rows"              -> relRows.toDouble,
          "data.cached_mb"         -> cachedMb,
          "core.exhaustive_ms"     -> median(plan.exhaustiveMs),
          "core.exhaustive_bvp_ms" -> median(plan.exhaustiveBvpMs),
          "core.greedy_ms"         -> median(plan.greedyMs),
          "core.cost_ms"           -> median(plan.costMs),
          "core.ratio.rank"        -> geomean(plan.ratios(Optimizer.Heuristic.RankOrdering.name)),
          "core.ratio.exp_tuples"  -> geomean(plan.ratios(Optimizer.Heuristic.ExpectedTuples.name)),
          "core.ratio.survival"    -> geomean(plan.ratios(Optimizer.Heuristic.SurvivalProb.name)),
        ) ++
        Approach.all.map(Metrics.approachKey).flatMap { a =>
          val cs = counted.filter(_._1 == a).map(_._2)
          Seq(
            s"engine.$a.call_ms"           -> sumOverQueries(q => median(samples((q, a)).map(_.ms))),
            s"engine.$a.jobs"              -> perCall(a)(_.jobs),
            s"engine.$a.tasks"             -> perCall(a)(_.tasks),
            s"engine.$a.checkpoint_jobs"   -> perCall(a)(_.checkpoints),
            s"engine.$a.job_ms"            -> perCall(a)(_.jobMs),
            s"engine.$a.driver_ms"         -> perCall(a)(_.driverMs),
            s"engine.$a.task_ms"           -> perCall(a)(_.taskMs),
            s"engine.$a.shuffle_mb"        -> perCall(a)(_.shuffleMb),
            s"engine.$a.gc_ms"             -> perCall(a)(_.gcMs),
            s"engine.$a.counted_ms"        -> cs.map(_.ms).sum,
            s"engine.$a.probes"            -> cs.map(_.probes).sum,
            s"engine.$a.probe_model_ratio" -> cs.map(_.probes).sum / cs.map(_.model).sum,
          )
        } ++
        Seq(
          "engine.com.factorized_ms" -> sumOverQueries(q => median(samples((q, Factorized)).map(_.ms))),
          "engine.out_rows"          -> queries.map(_.expected.flat.rows).sum.toDouble,
          "rules.call_ms"            -> sumOverQueries(q => median(samples((q, Metrics.Catalyst)).map(_.ms))),
          "rules.optimize_ms"        -> rulesOpt.map(r => median(r._1)).sum,
          "rules.reordered"          -> rulesOpt.map(_._2).sum,
          "rules.jobs"               -> perCall(Metrics.Catalyst)(_.jobs),
          "rules.driver_ms"          -> perCall(Metrics.Catalyst)(_.driverMs),
          "trace.call_ms"            -> Metrics.strategyKeys.map(s =>
            sumOverQueries(q => median(samples((q, s)).map(_.ms)))).sum,
          "trace.unaccounted_ms"     -> stats.values.flatten.map(_.outsideMs).sum,
          "spark.untagged_jobs"      -> listener.untaggedJobs.toDouble,
        )
      }

    val units = (if (o.trace) Metrics.perLayer else Metrics.endToEnd).toMap
    import org.json4s.JsonDSL._
    val env: JObject =
      ("workload" -> workload.name) ~ ("seed" -> o.seed) ~ ("seconds" -> o.seconds) ~
      ("trace" -> o.trace) ~ ("rev" -> o.rev) ~ ("nproc" -> Runtime.getRuntime.availableProcessors()) ~
      ("driver_heap_mb" -> Runtime.getRuntime.maxMemory() / 1048576) ~
      ("spark_version" -> spark.version) ~ ("master" -> spark.sparkContext.master) ~
      ("shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions")) ~
      ("queries" -> queries.map(q => ("name" -> q.name) ~ ("n" -> q.q.tree.n) ~
        ("driver" -> q.q.tree.driverSize.toLong) ~ ("out_rows" -> q.expected.flat.rows) ~
        ("order" -> q.order.mkString(",")) ~ ("stats" -> q.q.tree.toString))) ~
      ("timed_rounds" -> round) ~
      ("round_ms" -> roundMs.toList) ~
      // Per-strategy call times, in ms, per query and round.
      ("calls" -> JObject(samples.toList.sortBy(_._1).map { case ((q, s), xs) =>
        s"$q $s" -> JArray(xs.map(x => JDouble(x.ms)).toList) })) ~
      // Process CPU time of each call, in s, per query and round.
      ("call_cpu_s" -> JObject(callCpu.toList.sortBy(_._1).map { case ((q, s), xs) =>
        s"$q $s" -> JArray(xs.map(JDouble(_)).toList) }))
    val result: JObject =
      ("correct" -> (failed == 0)) ~ ("attempted" -> attempted) ~ ("failed" -> failed) ~
      ("metrics" -> JObject(metrics.toList.map { case (k, v) =>
        k -> (("value" -> v) ~ ("unit" -> units(k))) }))
    tracer.add(Span(runSpan, 0L, s"run ${workload.name} seed ${o.seed}", runStart, tracer.now()))
    writeOut(("env" -> env) ~ ("result" -> result))
    spark.stop()
    log(s"env ${compact(render(env))}")
    println(compact(render(result)))
    failed == 0
  }

  private def writeOut(record: JObject): Unit = {
    import org.json4s.JsonDSL._
    val dir = new java.io.File(o.outDir)
    dir.mkdirs()
    val stem = s"${workload.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    def write(name: String, body: JValue): Unit = {
      val w = new java.io.PrintWriter(new java.io.File(dir, name), "UTF-8")
      try w.println(compact(render(body))) finally w.close()
    }
    write(s"$stem.json", record)
    if (o.trace)
      write(s"$stem.spans.json", tracer.all.sortBy(_.start).map(s =>
        ("id" -> s.id) ~ ("parent" -> s.parent) ~ ("name" -> s.name) ~ ("start" -> s.start) ~
        ("end" -> s.end) ~ ("attrs" -> s.attrs)))
  }
}

object Bench {
  /** Local task threads: one per core, never more. */
  val Cores: Int = Runtime.getRuntime.availableProcessors()
  /** Set-up repetitions per untraced run; `setup_s` is their median. A
    * traced run sets up once.
    */
  val SetupReps = 3
  /** Timed rounds per untraced run, at least: `round_cpu_s` adds up each
    * call's least CPU time over them. A traced run makes at least one.
    */
  val MinRounds = 2
  /** Pseudo-strategy: COM with factorized output (traced runs only). */
  val Factorized = "com_factorized"

  def approachOf(key: String): Approach =
    Metrics.approachKey.collectFirst { case (a, k) if k == key => a }.get
}

object Main {

  def parse(args: Array[String]): Options = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", need("out"), m.getOrElse("rev", "unknown"))
  }

  def main(args: Array[String]): Unit =
    if (args.sameElements(Array("--list-metrics"))) {
      import org.json4s.JsonDSL._
      def block(ms: Seq[(String, String)]) = ms.map { case (n, u) => ("name" -> n) ~ ("unit" -> u) }
      println(compact(render(("end_to_end" -> block(Metrics.endToEnd)) ~ ("per_layer" -> block(Metrics.perLayer)))))
    } else {
      val ok = new Bench(parse(args)).run()
      sys.exit(if (ok) 0 else 1)
    }
}
