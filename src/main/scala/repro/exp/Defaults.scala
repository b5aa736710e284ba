package repro.exp

import repro.core.{ClusteredIndex, Rect, SpaceFillingCurve, SpatialGen}

/** The query-experiment defaults of Table 5, scaled as in DESIGN.md § 6,
  * and the [[Defaults.Case]] the BMTree, query and layout runners take their
  * inputs from. The sampling rate ρ stays with each runner.
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
  // A case's learning queries; it scores the learned curves on twice as many.
  val LearnQueries = 200

  /** One case of Section 6: a curve learned or chosen on one workload is
    * scored on a second from the same distribution. The data are `n` points
    * of `dist` from `seed` at ℓ = `DefaultBits`; `queries(count, seed)` makes
    * `learnCount` learning queries from seed + 1 and twice as many test
    * queries from seed + 2.
    */
  final case class Case(dist: String, n: Int, seed: Long, queries: (Int, Long) => Array[Rect],
                        learnCount: Int = LearnQueries) {
    lazy val data: Array[Array[Long]] = SpatialGen.quantizeAll(SpatialGen.points(dist, n, seed), DefaultBits)
    lazy val learnQs: Array[Rect] = queries(learnCount, seed + 1)
    lazy val testQs: Array[Rect] = queries(2 * learnCount, seed + 2)

    /** `curve`'s mean block accesses on the test queries, clustered at `DefaultBlock`. */
    def blockAccesses(curve: SpaceFillingCurve): Double =
      ClusteredIndex.build(data, curve, DefaultBlock).avgBlockAccesses(testQs.toSeq)
  }
}
