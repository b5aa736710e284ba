package repro.exp

/** The query-experiment defaults of Table 5, scaled as in DESIGN.md § 6,
  * shared by the BMTree, query and layout runners. The sampling rate ρ
  * stays with each runner: BMTreeExp and QueryExp use different rates.
  */
object Defaults {
  val DefaultBits = 16
  val DefaultN = 100_000
  val DefaultBlock = 128
  // Queries cover (8192/65536)² ≈ 1.6% of the space — selective enough to
  // be index-friendly, large enough that block counts differentiate curves
  // (the paper's PostgreSQL runs report thousands of block reads/query).
  val DefaultEdge = 8192L
  val DefaultH = 6
  // Queries each learner learns from; every runner scores the learned
  // curves on twice as many.
  val LearnQueries = 200
}
