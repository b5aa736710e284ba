package repro.core

/** A clustered B⁺-tree over SFC values, simulated at block granularity —
  * the substitute for the paper's PostgreSQL measurements (DESIGN.md § 4).
  *
  * Points are sorted by curve value and packed `blockSize` per block, the
  * way a B⁺-tree clusters a table on its key. The cost of a range query is
  * the number of distinct blocks that hold at least one qualifying point:
  * exactly the leaf/heap block reads of an index scan, and the quantity
  * the paper's local cost models (more query sections → the qualifying
  * points are split over more blocks; see Fig. 5 of the paper).
  *
  * The blocks' min/max boxes form a [[ZoneMap]]. A query skips a block
  * whose box is disjoint from it, counts a block whose box lies inside it
  * without scanning, and scans only the remaining blocks, stopping at their
  * first qualifying point. The count stays exact: a disjoint box holds no
  * qualifying point, a box inside the query holds only qualifying points
  * (and blocks are never empty), and every other block is decided by its
  * points.
  */
final class ClusteredIndex private (
    coords: Array[Array[Long]], // column-major: coords(dim)(rankedPointIdx)
    zones: ZoneMap,             // one zone per block
    val blockSize: Int,
    val d: Int) {

  /** Number of indexed points. */
  def size: Int = if (d == 0) 0 else coords(0).length

  /** Number of blocks a range query touches (0 on an index of no points). */
  def blockAccesses(q: Rect): Long = {
    require(q.d == d || size == 0, "query/index dimensionality mismatch")
    var count = 0L
    var b = 0
    while (b < zones.size) {
      zones.relate(q, b) match {
        case ZoneMap.Inside   => count += 1
        case ZoneMap.Overlaps => if (anyHit(q, b)) count += 1
        case ZoneMap.Disjoint =>
      }
      b += 1
    }
    count
  }

  /** Whether block `b` holds a point of `q`. */
  private def anyHit(q: Rect, b: Int): Boolean = {
    val start = b.toLong * blockSize
    val end = math.min(size.toLong, start + blockSize).toInt
    var i = start.toInt
    while (i < end) {
      var in = true
      var dim = 0
      while (in && dim < d) {
        val v = coords(dim)(i)
        if (v < q.lo(dim) || v > q.hi(dim)) in = false
        dim += 1
      }
      if (in) return true
      i += 1
    }
    false
  }

  /** Mean block accesses over a workload — the paper's core query metric. */
  def avgBlockAccesses(queries: Seq[Rect]): Double =
    if (queries.isEmpty) 0.0
    else queries.map(blockAccesses).sum.toDouble / queries.size
}

object ClusteredIndex {

  /** Build the simulated clustered index: sort `points` by `curve` value
    * (ties impossible for distinct cells; equal cells tie-break stably)
    * and pack `blockSize` points per block.
    */
  def build(points: Array[Array[Long]], curve: SpaceFillingCurve, blockSize: Int): ClusteredIndex =
    buildWithValues(points, points.map(curve.value), blockSize)

  /** Build from precomputed curve values, so a caller can time the curve
    * apart from the sort and pack.
    */
  def buildWithValues(points: Array[Array[Long]], values: Array[Long], blockSize: Int): ClusteredIndex = {
    require(points.length == values.length, "points/values length mismatch")
    require(blockSize >= 1, "blockSize must be ≥ 1")
    val d = if (points.isEmpty) 0 else points(0).length
    val n = if (d == 0) 0 else points.length
    val order = sortedOrder(values)
    val blocks = if (n == 0) 0 else (n - 1) / blockSize + 1
    val coords = Array.ofDim[Long](d, n)
    val zones = ZoneMap.builder(blocks, d)
    var b = 0
    while (b < blocks) {
      val start = b.toLong * blockSize
      val end = math.min(n.toLong, start + blockSize).toInt
      var dim = 0
      while (dim < d) {
        val col = coords(dim)
        var lo = Long.MaxValue
        var hi = Long.MinValue
        var i = start.toInt
        while (i < end) {
          val v = points(order(i))(dim)
          col(i) = v
          if (v < lo) lo = v
          if (v > hi) hi = v
          i += 1
        }
        zones.include(b, dim, lo, hi)
        dim += 1
      }
      b += 1
    }
    new ClusteredIndex(coords, zones.result(), blockSize, d)
  }

  /** Point indices ordered by `(values(i), i)`, by a stable LSD radix sort
    * over the bytes of the value with its sign bit flipped (so unsigned
    * byte order is signed `Long` order). Byte positions where every value
    * agrees are skipped.
    */
  private[core] def sortedOrder(values: Array[Long]): Array[Int] = {
    val n = values.length
    var keys = new Array[Long](n)
    var diff = 0L // bits in which some value differs from the first
    var i = 0
    while (i < n) {
      keys(i) = values(i) ^ Long.MinValue
      diff |= values(i) ^ values(0)
      i += 1
    }
    var order = Array.range(0, n)
    var keysOut = new Array[Long](n)
    var orderOut = new Array[Int](n)
    val counts = new Array[Int](256)
    var shift = 0
    while (shift < 64) {
      if (((diff >>> shift) & 0xff) != 0) {
        java.util.Arrays.fill(counts, 0)
        i = 0
        while (i < n) { counts(((keys(i) >>> shift) & 0xff).toInt) += 1; i += 1 }
        // Bucket counts → start offsets.
        var sum = 0
        var c = 0
        while (c < 256) { val k = counts(c); counts(c) = sum; sum += k; c += 1 }
        i = 0
        while (i < n) {
          val bucket = ((keys(i) >>> shift) & 0xff).toInt
          val to = counts(bucket)
          keysOut(to) = keys(i)
          orderOut(to) = order(i)
          counts(bucket) = to + 1
          i += 1
        }
        val k = keys; keys = keysOut; keysOut = k
        val o = order; order = orderOut; orderOut = o
      }
      shift += 8
    }
    order
  }
}
