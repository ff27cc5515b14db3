package repro.exp

import repro.core._

/** T4 (paper Fig 13, §5.4): analytic comparison of the five approaches
  * (STD omitted, as in the paper, because its cost distorts the scale) on
  * idealized workloads where every edge has the same match probability and
  * fanout. Costs are weighted probe counts per §5.4: bitvector/semi-join
  * probe = 1/2 hash probe, tuple generation = 1/14 hash probe; flat output.
  */
object T4Simulation {

  val approaches: Seq[Approach] =
    Seq(Approach.BvpStd, Approach.SjStd, Approach.Com, Approach.BvpCom, Approach.SjCom)

  final case class Cell(shape: String, fo: Double, m: Double, costs: Map[String, Double])

  /** Per-approach order choice mirrors §5: COM variants via Algorithm 1,
    * STD variants via rank ordering, SJ+STD's phase 2 via its closed-form
    * optimum. SJ+COM costs the same in every valid phase-2 order (Thm 3.5),
    * so it takes node order, which is valid since parents precede children.
    */
  def orderFor(tree: JoinTree, a: Approach): Seq[Int] = a match {
    case Approach.Com    => Optimizer.exhaustiveCom(tree)._1
    case Approach.BvpCom => Optimizer.exhaustiveBvpCom(tree)._1
    case Approach.SjStd  => SemiJoinModel.phase2OrderStd(tree)
    case Approach.SjCom  => (1 until tree.n).toList
    case _               => Optimizer.greedy(tree, Optimizer.Heuristic.RankOrdering)
  }

  def run(): Seq[Cell] =
    for {
      shape <- Shape.paper
      fo    <- Seq(2.0, 5.0)
      m     <- (1 to 9).map(_ / 10.0)
    } yield {
      val tree  = shape(Seq.fill(shape.edges)(EdgeStats(m, fo)), 1.0e5)
      val costs = approaches.map { a =>
        a.name -> CostModel.cost(tree, orderFor(tree, a), a).total(Weights())
      }.toMap
      Cell(shape.name, fo, m, costs)
    }

  def table(cells: Seq[Cell]): Seq[String] = {
    val header = Seq("shape", "fo", "m") ++ approaches.map(_.name)
    val rows = cells.map { c =>
      Seq(c.shape, Tables.fmt(c.fo), Tables.fmt(c.m)) ++
        approaches.map(a => Tables.fmt(c.costs(a.name)))
    }
    Tables.render(
      "T4 / Fig 13 - analytic weighted cost (per-plan total, driver 1e5, flat output)",
      header, rows)
  }

  /** Paper shape (Fig 13): STD variants competitive at low m, COM variants
    * win increasingly as m (and fo) grow and beat BVP+STD at high m; BVP+COM
    * best at low m, plain COM best at the highest m.
    */
  def gates(cells: Seq[Cell]): Seq[Gate] = {
    // COM's advantage over BVP+STD grows with m for high fanout.
    val growth = Seq("star7", "path11").map { shape =>
      val hiFo    = cells.filter(c => c.shape == shape && c.fo == 5.0).sortBy(_.m)
      val gapLow  = hiFo.head.costs("BVP+STD") / hiFo.head.costs("COM")
      val gapHigh = hiFo.last.costs("BVP+STD") / hiFo.last.costs("COM")
      Gate(s"$shape, fo 5: BVP+STD/COM at the highest m >= at the lowest", Some(gapHigh >= gapLow),
        s"${Tables.fmt(gapLow)} -> ${Tables.fmt(gapHigh)}")
    }
    // At the highest match probabilities plain COM is best among COM variants
    // (bitvector / semi-join probes are pure overhead there).
    val top = cells.filter(c => c.m >= 0.9)
    val comBest = top.count(c =>
      c.costs("COM") <= c.costs("BVP+COM") + 1e-9 &&
      c.costs("COM") <= c.costs("SJ+COM") + 1e-9)
    // At high match probability and fanout COM beats BVP+STD.
    val hi      = cells.filter(c => c.m >= 0.8 && c.fo == 5.0)
    val comWins = hi.count(c => c.costs("COM") <= c.costs("BVP+STD"))
    // At low match probability bitvectors pay off for COM.
    val lo        = cells.filter(c => c.m <= 0.2 && c.fo == 5.0)
    val bvpBetter = lo.count(c => c.costs("BVP+COM") <= c.costs("COM"))
    growth ++ Seq(
      Gate("m >= 0.9: COM <= BVP+COM + 1e-9 and <= SJ+COM + 1e-9 in >= 3/4 of cells",
        Some(comBest >= top.size * 3 / 4), s"$comBest of ${top.size} cells"),
      Gate("m >= 0.8, fo 5: COM <= BVP+STD in every cell",
        Some(comWins == hi.size), s"$comWins of ${hi.size} cells"),
      Gate("m <= 0.2, fo 5: BVP+COM <= COM in >= 1/2 of cells",
        Some(bvpBetter >= lo.size / 2), s"$bvpBetter of ${lo.size} cells"))
  }
}
