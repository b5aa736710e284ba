package repro.exp

/** One shape claim of a paper table or figure, as a run measured it:
  * `statement` names the compared quantities with their measured values,
  * and `holds` says whether the comparison came out the paper's way. Each
  * runner states the claims of its tables next to them; `Main` prints them,
  * and the bench fails on any that does not hold.
  */
final case class Claim(statement: String, holds: Boolean)
