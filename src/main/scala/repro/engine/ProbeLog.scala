package repro.engine

import repro.core.{PlanCost, Weights}

/** Measured unit-operation counts of one plan execution — the paper's
  * abstract cost metric (§5: "the number of probes into the hash tables",
  * with bitvector and semi-join probes counted separately and weighted).
  */
final case class ProbeLog(
    htProbes: Map[Int, Long],
    bvProbes: Long,
    semiProbes: Long,
    outRows: Long,
) {
  def totalHt: Long = htProbes.values.sum

  /** Weighted probe total: `PlanCost.total` of the measured counts, with
    * the output rows as generated tuples.
    */
  def weighted(w: Weights): Double =
    PlanCost(totalHt.toDouble, bvProbes.toDouble, semiProbes.toDouble, outRows.toDouble).total(w)
}
