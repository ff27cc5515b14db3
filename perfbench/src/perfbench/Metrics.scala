package perfbench

import repro.core.Approach

/** Names and units of every metric the benchmark prints. BENCHMARK.json
  * lists the same names; `run.py` refuses a result whose names differ.
  */
object Metrics {

  /** Metric-name key of each execution strategy: the six approaches, then
    * the Catalyst rule over a flat join chain.
    */
  val approachKey: Map[Approach, String] = Map(
    Approach.Std -> "std", Approach.Com -> "com", Approach.BvpStd -> "bvp_std",
    Approach.BvpCom -> "bvp_com", Approach.SjStd -> "sj_std", Approach.SjCom -> "sj_com")
  val Catalyst = "catalyst"
  val strategyKeys: Seq[String] = Approach.all.map(approachKey) :+ Catalyst

  /** On a shared machine, one warm call per strategy per run is too noisy
    * for a bound, and so is wall time: it counts the time the JVM waits
    * for a processor, which varies from run to run by tens of per cent.
    * The end-to-end cost of the strategies is therefore the process CPU
    * time of a round (every strategy once on every query), with each call
    * at its least over the run's rounds. Even the plan search's thread CPU
    * time spread by up to a third across runs, so its times are per-layer
    * (`core.*`); its plan quality stays end-to-end. Runs record per-call
    * wall and CPU times in their result files, and traced runs report the
    * wall times per layer.
    */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s"         -> "s",
    "round_cpu_s"     -> "s",
    "plan_cost_ratio" -> "ratio",
    "peak_heap_mb"    -> "MB",
  )

  val perLayer: Seq[(String, String)] =
    Seq(
      "weighted_probes"         -> "count",
      "data.generate_ms"        -> "ms",
      "data.rows"               -> "count",
      "data.cached_mb"          -> "MB",
      "core.exhaustive_ms"      -> "ms",
      "core.exhaustive_bvp_ms"  -> "ms",
      "core.greedy_ms"          -> "ms",
      "core.cost_ms"            -> "ms",
      "core.ratio.rank"         -> "ratio",
      "core.ratio.exp_tuples"   -> "ratio",
      "core.ratio.survival"     -> "ratio",
    ) ++
    Approach.all.map(approachKey).flatMap(a => Seq(
      s"engine.$a.call_ms"           -> "ms",
      s"engine.$a.jobs"              -> "count",
      s"engine.$a.tasks"             -> "count",
      s"engine.$a.checkpoint_jobs"   -> "count",
      s"engine.$a.job_ms"            -> "ms",
      s"engine.$a.driver_ms"         -> "ms",
      s"engine.$a.task_ms"           -> "ms",
      s"engine.$a.shuffle_mb"        -> "MB",
      s"engine.$a.gc_ms"             -> "ms",
      s"engine.$a.counted_ms"        -> "ms",
      s"engine.$a.probes"            -> "count",
      s"engine.$a.probe_model_ratio" -> "ratio",
    )) ++
    Seq(
      "engine.com.factorized_ms" -> "ms",
      "engine.out_rows"          -> "count",
      "rules.call_ms"            -> "ms",
      "rules.optimize_ms"        -> "ms",
      "rules.reordered"          -> "count",
      "rules.jobs"               -> "count",
      "rules.driver_ms"          -> "ms",
      "trace.call_ms"            -> "ms",
      "trace.unaccounted_ms"     -> "ms",
      "spark.untagged_jobs"      -> "count",
    )
}
