package repro.exp

/** One gate's verdict: a claim about the paper's shape, checked on a
  * table's results; `holds` is None when the gate was skipped. The note
  * gives the measured values, or why the gate was skipped.
  */
final case class Gate(claim: String, holds: Option[Boolean], note: String) {
  /** The line `Run` prints under the table: holds, FAILS or skipped. */
  def line: String = s"gate ${holds.fold("skipped")(if (_) "holds" else "FAILS")}: $claim" +
    (if (note.isEmpty) "" else s" [$note]")
}
