package repro.core

import java.util.Random

/** Range-query workload generation (Section 6.1).
  *
  * The paper uses synthetic queries of uniform size whose centers follow
  * the data distribution; square queries for the cost-estimation
  * experiments, and aspect-ratio / edge-length sweeps for the query
  * efficiency study.
  */
object Workloads {

  /** `n` square queries of edge `edge` cells centered at points drawn from
    * `dist` (clamped to the grid).
    */
  def squares(dist: String, n: Int, edge: Long, bits: Int, seed: Long): Array[Rect] =
    rectangles(dist, n, edge, edge, bits, seed)

  /** `n` queries of width `wx` × height `wy` cells (aspect-ratio sweeps). */
  def rectangles(dist: String, n: Int, wx: Long, wy: Long, bits: Int, seed: Long): Array[Rect] = {
    val k = 1L << bits
    require(wx >= 1 && wy >= 1 && wx <= k && wy <= k, s"query $wx×$wy exceeds grid $k")
    val centers = SpatialGen.points(dist, n, seed)
    centers.map { c =>
      val cx = SpatialGen.quantize(c(0), bits)
      val cy = SpatialGen.quantize(c(1), bits)
      val x0 = clampLo(cx - wx / 2, wx, k)
      val y0 = clampLo(cy - wy / 2, wy, k)
      Rect.of2d(x0, x0 + wx - 1, y0, y0 + wy - 1)
    }
  }

  /** `n` queries at uniformly random grid locations with per-dimension
    * extents drawn in `[1, maxEdge]` — the workload of the cost-scoring
    * benchmark and of correctness tests (the paper's "queries generated
    * at random locations").
    */
  def randomRects(d: Int, n: Int, maxEdge: Long, bits: Int, seed: Long): Array[Rect] = {
    val rng = new Random(seed)
    val k = 1L << bits
    Array.fill(n) {
      val lo = new Array[Long](d)
      val hi = new Array[Long](d)
      var i = 0
      while (i < d) {
        val w = 1 + nextLong(rng, math.min(maxEdge, k))
        val s = nextLong(rng, k - w + 1)
        lo(i) = s
        hi(i) = s + w - 1
        i += 1
      }
      Rect(lo, hi)
    }
  }

  /** Aspect-ratio variant: area ≈ edge², width:height = ratio (e.g. 16:1
    * → wide and short), as in Fig. 16.
    */
  def withAspectRatio(dist: String, n: Int, edge: Long, ratio: Double, bits: Int, seed: Long): Array[Rect] = {
    val k = 1L << bits
    val wx = math.max(1L, math.min(k, math.round(edge * math.sqrt(ratio))))
    val wy = math.max(1L, math.min(k, math.round(edge / math.sqrt(ratio))))
    rectangles(dist, n, wx, wy, bits, seed)
  }

  private def clampLo(lo: Long, w: Long, k: Long): Long =
    math.max(0L, math.min(lo, k - w))

  private def nextLong(rng: Random, bound: Long): Long =
    if (bound <= Int.MaxValue) rng.nextInt(bound.toInt).toLong
    else (rng.nextDouble() * bound).toLong
}
