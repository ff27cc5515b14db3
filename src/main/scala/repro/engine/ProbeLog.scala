package repro.engine

import repro.core.Weights

/** Measured unit-operation counts of one plan execution — the paper's
  * abstract cost metric (§5: "the number of probes into the hash tables",
  * with bitvector and semi-join probes counted separately and weighted).
  */
final case class ProbeLog(
    htProbes: Map[Int, Long],
    bvProbes: Long,
    semiProbes: Long,
    outRows: Long,
    wallMs: Long,
) {
  def totalHt: Long = htProbes.values.sum

  /** Weighted probe total, comparable to `PlanCost.total`. */
  def weighted(w: Weights): Double =
    w.probe * totalHt + w.bv * bvProbes + w.semi * semiProbes + w.gen * outRows
}
