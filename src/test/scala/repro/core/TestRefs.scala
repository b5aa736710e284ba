package repro.core

/** Brute-force reference implementations used only by tests.
  *
  * Everything here is O(V(q)) or worse by design: the production code is
  * validated against these on small grids.
  */
object TestRefs {

  /** Parse "YXYX"-style strings (most-significant bit first, X = dim 0). */
  def fromString(s: String): BMC = {
    val ids = s.toUpperCase.map { c =>
      val i = BMC.Letters.indexOf(c)
      require(i >= 0, s"unknown dimension letter '$c'")
      i
    }
    BMC(ids.reverse, ids.max + 1)
  }

  /** All valid BMCs with `bits` bits per dimension, for small (d, bits). */
  def allBMCs(d: Int, bits: Int): Seq[BMC] = {
    def perms(remaining: Array[Int], acc: List[Int]): Seq[List[Int]] =
      if (remaining.forall(_ == 0)) Seq(acc.reverse)
      else (0 until d).filter(remaining(_) > 0).flatMap { i =>
        val r2 = remaining.clone(); r2(i) -= 1
        perms(r2, i :: acc)
      }
    perms(Array.fill(d)(bits), Nil).map(BMC(_, d))
  }

  /** Inverse of `bmc.value`: the grid cell whose curve value is `v`. */
  def inverse(bmc: BMC, v: Long): Array[Long] = {
    val p = new Array[Long](bmc.d)
    for (r <- 0 until bmc.length) p(bmc.dims(r)) |= ((v >>> r) & 1L) << bmc.bitOfDim(r)
    p
  }

  /** All curve values of the cells of `q`, sorted ascending. */
  def sortedValues(q: Rect, curve: SpaceFillingCurve): Array[Long] = {
    val out = Rect.cells(q).map(curve.value).toArray
    java.util.Arrays.sort(out)
    out
  }

  /** Exact E_σ(q): consecutive-value pairs with both cells inside q. */
  def exactEdges(q: Rect, curve: SpaceFillingCurve): Long = {
    val vs = sortedValues(q, curve)
    var e = 0L
    var i = 1
    while (i < vs.length) {
      if (vs(i) == vs(i - 1) + 1) e += 1
      i += 1
    }
    e
  }

  /** Exact S_σ(q): maximal runs of consecutive values inside q. */
  def exactSections(q: Rect, curve: SpaceFillingCurve): Long =
    q.volume - exactEdges(q, curve)

  /** Exact rise-pattern count by enumeration over the coordinate range. */
  def exactRiseCount(s: Long, e: Long, k: Int): Long = {
    var count = 0L
    var x = s
    while (x < e) {
      // x -> x+1 is a rise of order k iff the k-1 low bits of x are all 1,
      // bit k-1 of x is 0, and the carry stops there.
      val low = x & ((1L << k) - 1)
      if (low == (1L << (k - 1)) - 1) count += 1
      x += 1
    }
    count
  }

  /** Exact drop-pattern count by enumerating prefixes `a`: pairs
    * `(a·2^k + 2^k − 1, a·2^k)` with both ends inside `[s, e]`.
    */
  def exactDropCount(s: Long, e: Long, k: Int): Long = {
    if (k == 0) return e - s + 1
    val p = 1L << k
    (0L to (e >> k)).count(a => a * p >= s && a * p + p - 1 <= e).toLong
  }

  /** N(R^k) by its closed form, with floor and ceiling division by 2^k
    * in `BigInt`: exact for every `Long` range and every k ≥ 1.
    */
  def floorDivRiseCount(s: Long, e: Long, k: Int): Long = {
    val p = BigInt(1) << k
    val half = p >> 1
    val aMax = floorDiv(BigInt(e) - half, p)
    val aMin = ceilDiv(BigInt(s) - (half - 1), p).max(0)
    (aMax - aMin + 1).max(0).toLong
  }

  /** N(D^k) by its closed form, in `BigInt` as [[floorDivRiseCount]]. */
  def floorDivDropCount(s: Long, e: Long, k: Int): Long =
    if (k == 0) e - s + 1
    else {
      val p = BigInt(1) << k
      val aMax = floorDiv(BigInt(e) + 1, p) - 1
      val aMin = ceilDiv(BigInt(s), p).max(0)
      (aMax - aMin + 1).max(0).toLong
    }

  private def floorDiv(a: BigInt, p: BigInt): BigInt = (a - a.mod(p)) / p

  private def ceilDiv(a: BigInt, p: BigInt): BigInt = -floorDiv(-a, p)

  /** Alg. 1's pattern tables by its formula, vertex by vertex:
    * `T_b[c] = Σ_q N_q(R_b^{c_b+1}) · Π_{m≠b} N_q(D_m^{c_m})`, 0 where
    * c_b = ℓ_b, with counts by enumeration and the vertex c at index
    * `Σ_m c_m·Π_{m'<m}(ℓ_m'+1)`.
    */
  def patternTables(qs: Seq[Rect], d: Int, bits: Array[Int]): Array[Array[Long]] =
    Array.tabulate(d, bits.map(_ + 1).product) { (b, v) =>
      val c = bits.scanLeft(v)((rest, l) => rest / (l + 1)).zip(bits).map { case (r, l) => r % (l + 1) }
      if (c(b) == bits(b)) 0L
      else qs.map { q =>
        (0 until d).map { m =>
          if (m == b) exactRiseCount(q.lo(m), q.hi(m), c(m) + 1) else exactDropCount(q.lo(m), q.hi(m), c(m))
        }.product
      }.sum
    }

  /** Point indices ordered by `(values(i), i)` with a boxed comparison sort. */
  def stableOrder(values: Array[Long]): Array[Int] = {
    val boxed = Array.range(0, values.length).map(Integer.valueOf)
    java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => {
      val c = java.lang.Long.compare(values(a), values(b))
      if (c != 0) c else Integer.compare(a, b)
    })
    boxed.map(_.intValue)
  }

  /** Block accesses of `q` by a full scan: points sorted by `(value, index)`,
    * packed `b` per block, counting distinct blocks holding a point of `q`.
    */
  def fullScanBlockAccesses(points: Array[Array[Long]], values: Array[Long], b: Int, q: Rect): Long = {
    var count = 0L
    var lastBlock = -1L
    for ((src, rank) <- stableOrder(values).zipWithIndex if q.contains(points(src))) {
      val block = rank / b
      if (block != lastBlock) { count += 1; lastBlock = block }
    }
    count
  }

  /** Skilling's transpose Hilbert value with branches and a scratch copy. */
  def hilbertValue(d: Int, bits: Int, p: Array[Long]): Long = {
    val x = p.clone()
    var q = 1L << (bits - 1)
    while (q > 1) {
      val mask = q - 1
      var i = 0
      while (i < d) {
        if ((x(i) & q) != 0) x(0) ^= mask
        else { val t = (x(0) ^ x(i)) & mask; x(0) ^= t; x(i) ^= t }
        i += 1
      }
      q >>= 1
    }
    var i = 1
    while (i < d) { x(i) ^= x(i - 1); i += 1 }
    var t = 0L
    q = 2L
    while (q != (1L << bits)) {
      if ((x(d - 1) & q) != 0) t ^= q - 1
      q <<= 1
    }
    i = 0
    while (i < d) { x(i) ^= t; i += 1 }
    var v = 0L
    var b = 0
    while (b < bits) {
      i = 0
      while (i < d) {
        v |= ((x(i) >>> b) & 1L) << (b * d + (d - 1 - i))
        i += 1
      }
      b += 1
    }
    v
  }
}
