package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.GraphData

/** T3 (paper Fig 12, §5.3): the CE-benchmark experiment, over the synthetic
  * zipf-graph substitutes (DESIGN.md documents the substitution), scaled to
  * a quarter of their configured size. Queries are self-join patterns over
  * each dataset's edge table; the survival heuristic on naive-estimated
  * statistics picks the order; all six approaches run with exact probe
  * accounting; results are reported relative to COM.
  */
object T3Ce {

  val Scale  = 0.25
  val OutCap = 2e6
  val Seed   = 7L

  final case class RunRow(dataset: String, query: String, approach: String,
                          status: String, weighted: Double) extends VsCom {
    def key: (String, String) = (dataset, query)
    def cells: Seq[String]    = Seq(dataset, query, approach)
    def isBase: Boolean       = approach == "COM"
  }

  /** Exact flat-output cardinality of an alias query, computed on the
    * collected edge list (vertex domains are small) — used to skip queries
    * whose result would not fit, as the paper filtered by result size.
    */
  def exactOut(edges: Array[(Long, Long)], parents: Seq[Int]): Double = {
    val n   = parents.length
    val adj = edges.groupBy(_._1).map { case (s, es) => s -> es.map(_._2) }
    val children = Array.fill(n)(List.empty[Int])
    for (i <- 1 until n) children(parents(i)) = i :: children(parents(i))
    val memo = Array.fill(n)(scala.collection.mutable.Map.empty[Long, Double])
    def cnt(i: Int, v: Long): Double = memo(i).getOrElseUpdate(v, {
      adj.getOrElse(v, Array.empty[Long]).foldLeft(0.0) { (acc, dst) =>
        acc + children(i).map(c => cnt(c, dst)).product
      }
    })
    edges.foldLeft(0.0) { case (acc, (_, dst)) =>
      acc + children(0).map(c => cnt(c, dst)).product
    }
  }

  def run(spark: SparkSession): Seq[RunRow] = {
    val w = Weights()
    GraphData.datasets.flatMap { cfg0 =>
      val cfg = cfg0.copy(
        vertices = math.max(100L, (cfg0.vertices * Scale).toLong),
        edges = math.max(1000L, (cfg0.edges * Scale).toLong))
      val e = GraphData.edges(spark, cfg, Seed).persist()
      e.count()
      val collected = e.select("src", "dst").collect()
        .map(r => (r.getLong(0), r.getLong(1)))
      try GraphData.shapes.flatMap { case (qname, parents) =>
        val out = exactOut(collected, parents)
        if (out <= OutCap) {
          val q     = GraphData.aliasQuery(e, parents)
          val order = Optimizer.greedy(q.tree, Optimizer.Heuristic.SurvivalProb)
          Harness.flatRuns(q, order).map {
            case (a, None)    => RunRow(cfg.name, qname, a.name, "TIMEOUT", -1.0)
            case (a, Some(l)) => RunRow(cfg.name, qname, a.name, "ok", l.weighted(w))
          }
        } else Seq(RunRow(cfg.name, qname, "(all)", s"SKIP out=${out.toLong}", -1.0))
      } finally { e.unpersist(blocking = false); () }
    }
  }

  def table(rows: Seq[RunRow]): Seq[String] =
    Harness.vsComTable(
      "T3 / Fig 12 - CE-benchmark substitute, six approaches (ratios vs COM)",
      Seq("dataset", "query", "approach"), rows)

  /** Paper shape (Fig 12): same as the synthetic benchmark, COM variants
    * dominate STD variants on exploding self-join patterns.
    */
  def gates(rows: Seq[RunRow]): Seq[Gate] = {
    val ok = rows.filter(_.status == "ok")
    // COM never worse than STD on weighted probes for the same query.
    val viol = for {
      (ds, qn) <- ok.map(r => (r.dataset, r.query)).distinct
      c  <- ok.find(r => r.dataset == ds && r.query == qn && r.approach == "COM")
      st <- ok.find(r => r.dataset == ds && r.query == qn && r.approach == "STD")
      if c.weighted > st.weighted * 1.05
    } yield (ds, qn)
    val datasets = rows.map(_.dataset).distinct.size
    Seq(
      Gate("some queries execute", Some(ok.nonEmpty), s"${ok.size} ok runs"),
      Gate("COM <= STD * 1.05 in weighted probes on every query", Some(viol.isEmpty),
        if (viol.isEmpty) "" else s"COM worse than STD on: $viol"),
      // Every dataset contributed at least one executed or skipped query row.
      Gate("all 5 datasets report a row", Some(datasets == 5), s"$datasets datasets"))
  }
}
