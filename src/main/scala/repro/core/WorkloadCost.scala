package repro.core

/** The paper's combined cost model, `C_σ(Q) = Cg_σ(Q) · Cl_σ(Q)` (Eq. 4).
  *
  * Construction runs both O(n) initializations (IGC + ILC); [[cost]] then
  * evaluates any candidate BMC in O(d·ℓ) = O(1) time — this is the reward
  * function used by LBMC and QUILTS, and the score by which the Parquet
  * layout chooses its curve.
  */
final class WorkloadCost(val queries: Seq[Rect], val d: Int, val bitsPerDim: Array[Int]) {
  /** Closed-form global cost estimator (Eq. 6). */
  val global = new GlobalCost.Estimator(queries, d, bitsPerDim)

  /** Pattern tables for the local cost (Algorithms 1–2). */
  val local = new LocalCost.PatternTables(queries, d, bitsPerDim)

  /** Combined cost of the workload under `bmc`. */
  def cost(bmc: BMC): BigInt = global.cost(bmc) * local.cost(bmc)

  /** Cost as a Double — for RL rewards and ranking, where 53-bit mantissa
    * precision is ample.
    */
  def costD(bmc: BMC): Double = cost(bmc).doubleValue
}

object WorkloadCost {
  /** Uniform-ℓ convenience constructor. */
  def apply(queries: Seq[Rect], d: Int, bits: Int): WorkloadCost =
    new WorkloadCost(queries, d, Array.fill(d)(bits))
}
