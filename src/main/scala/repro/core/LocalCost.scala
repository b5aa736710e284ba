package repro.core

/** Local cost of range queries under a BMC (Section 4.2).
  *
  * The local cost of a query is its number of *query sections* — maximal
  * runs of consecutive curve values inside the query (Definition 3). It is
  * computed as `S_σ(q) = V(q) − E_σ(q)` (Eq. 7) where `E_σ(q)` counts the
  * *directed edges* (consecutive curve-value pairs both inside q), which in
  * turn are counted from BMC-independent *rise* and *drop* bit patterns
  * (Definitions 4–6) pre-aggregated into per-dimension pattern tables
  * (Algorithm 1). Evaluating a BMC is then `d·ℓ` table lookups
  * (Algorithm 2) — O(1) for constant d, ℓ.
  */
object LocalCost {

  private def pow2(k: Int): Long = 1L << k

  private def ceilDiv(a: Long, b: Long): Long = -Math.floorDiv(-a, b)

  /** N(R_b^k): rise patterns of order `k ≥ 1` inside the inclusive
    * coordinate range `[s, e]` — transitions from `a·2^k + (2^(k−1)−1)` to
    * `a·2^k + 2^(k−1)` with both endpoints in range (Section 4.2.1).
    */
  def riseCount(s: Long, e: Long, k: Int): Long = {
    require(k >= 1, s"rise pattern order must be ≥ 1, got $k")
    val half = pow2(k - 1)
    val aMax = Math.floorDiv(e - half, pow2(k))
    val aMin = math.max(0L, ceilDiv(s - (half - 1), pow2(k)))
    math.max(0L, aMax - aMin + 1)
  }

  /** N(D_b^k): drop patterns of order `k ≥ 0` inside `[s, e]` —
    * transitions from `a·2^k + (2^k−1)` to `a·2^k` with both endpoints in
    * range; `k = 0` is the no-change pattern, counted as the range length.
    */
  def dropCount(s: Long, e: Long, k: Int): Long = {
    require(k >= 0, s"drop pattern order must be ≥ 0, got $k")
    if (k == 0) e - s + 1
    else {
      val aMax = Math.floorDiv(e + 1, pow2(k)) - 1
      val aMin = math.max(0L, ceilDiv(s, pow2(k)))
      math.max(0L, aMax - aMin + 1)
    }
  }

  /** E_σ(q) via per-query pattern counting (Eq. 9), without tables.
    * `O(d·ℓ·(d−1))` per query per BMC — the reference the tables amortize.
    */
  def edgesViaPatterns(q: Rect, bmc: BMC): Long = {
    require(q.d == bmc.d, "query/BMC dimensionality mismatch")
    var e = 0L
    var b = 0
    while (b < bmc.d) {
      var i = 1
      while (i <= bmc.bitsPerDim(b)) {
        val rises = riseCount(q.lo(b), q.hi(b), i)
        if (rises != 0) {
          val gamma = bmc.ranks(b)(i - 1)
          var prod = 1L
          var m = 0
          while (m < bmc.d && prod != 0) {
            if (m != b) prod *= dropCount(q.lo(m), q.hi(m), bmc.countBelow(gamma)(m))
            m += 1
          }
          e += rises * prod
        }
        i += 1
      }
      b += 1
    }
    e
  }

  /** S_σ(q) for a single query via Eq. 7 with pattern-counted edges. */
  def sections(q: Rect, bmc: BMC): Long = q.volume - edgesViaPatterns(q, bmc)

  /** NLC: the naive scan baseline — enumerate the cells of `q`, map them
    * through the curve, sort, and count maximal runs of consecutive
    * values. `O(V log V)` per query; infeasible for large queries, which
    * is exactly the bottleneck the paper removes. Works for *any* curve
    * (used to cross-check Hilbert/piecewise curves too).
    */
  def sectionsByScan(q: Rect, curve: SpaceFillingCurve): Long = {
    val vol = q.volume
    require(vol <= Int.MaxValue, s"query too large to scan: $vol cells")
    val values = new Array[Long](vol.toInt)
    var i = 0
    Rect.cells(q).foreach { p => values(i) = curve.value(p); i += 1 }
    java.util.Arrays.sort(values)
    var runs = 1L
    i = 1
    while (i < values.length) {
      if (values(i) != values(i - 1) + 1) runs += 1
      i += 1
    }
    runs
  }

  /** Naive total local cost of a workload (Eq. 10 with scanned sections). */
  def naive(queries: Seq[Rect], curve: SpaceFillingCurve): BigInt =
    queries.foldLeft(BigInt(0))((acc, q) => acc + BigInt(sectionsByScan(q, curve)))

  /** LC: pattern tables (Algorithm 1) + O(1) per-BMC evaluation
    * (Algorithm 2).
    *
    * Table^b has ℓ_b rows (rise patterns of dimension b) and
    * `Π_{m≠b}(ℓ_m+1)` columns — one per *drop pattern collection*
    * (Definition 6), i.e. per assignment of a drop order `k_m ∈ [0, ℓ_m]`
    * to every other dimension, encoded in mixed radix. Construction is the
    * O(n)-scan initialization (ILC); [[edges]]/[[cost]] evaluate any BMC
    * with `d·ℓ` lookups.
    *
    * All counts are exact `Long`s: every table entry, drop product and edge
    * count is a sum of per-query terms each at most V(q), so the workload
    * is refused unless ΣV(q) ≤ `Long.MaxValue`. Shapes whose tables exceed
    * [[PatternTables.MaxCells]] cells are refused before anything is
    * allocated.
    */
  final class PatternTables(queries: Seq[Rect], val d: Int, val bitsPerDim: Array[Int]) {
    require(queries.nonEmpty, "empty workload")

    private def shape: String = s"d=$d, ℓ=${bitsPerDim.mkString("(", ",", ")")}"

    /** Dimensions other than b, in ascending order (column radix order). */
    private val others: Array[Array[Int]] =
      Array.tabulate(d)(b => (0 until d).filter(_ != b).toArray)

    /** Columns of Table^b, `Π_{m≠b}(ℓ_m+1)`. */
    private val numCols: Array[Int] = Array.tabulate(d) { b =>
      val cols = others(b).foldLeft(BigInt(1))((acc, m) => acc * (bitsPerDim(m) + 1))
      require(cols.isValidInt, s"pattern table $b for $shape needs $cols columns, over Int.MaxValue")
      cols.toInt
    }

    private val cells = (0 until d).map(b => bitsPerDim(b).toLong * numCols(b)).sum
    require(cells <= PatternTables.MaxCells,
      s"pattern tables for $shape need $cells cells, over the limit of ${PatternTables.MaxCells}")

    /** Mixed-radix stride of each other-dimension in Table^b's columns. */
    private val strides: Array[Array[Long]] = Array.tabulate(d) { b =>
      val o = others(b)
      val s = new Array[Long](o.length)
      var acc = 1L
      var i = 0
      while (i < o.length) {
        s(i) = acc
        acc *= bitsPerDim(o(i)) + 1
        i += 1
      }
      s
    }

    /** Σ_q V(q), BMC-independent (computed in the same O(n) scan). */
    val totalVolume: BigInt = {
      var sum = 0L
      try for (q <- queries) {
        var v = 1L
        var i = 0
        while (i < q.d) { v = Math.multiplyExact(v, q.extent(i)); i += 1 }
        sum = Math.addExact(sum, v)
      } catch {
        case _: ArithmeticException => throw new IllegalArgumentException(
          s"workload volume ΣV(q) exceeds Long.MaxValue; its pattern tables ($shape) would overflow")
      }
      BigInt(sum)
    }

    /** Number of queries in the workload. */
    val n: Int = queries.size

    /** tables(b)(i−1)(col) = Σ_q N_q(R_b^i) · Π_{m≠b} N_q(D_m^{k_m}).
      *
      * Buffers are hoisted out of the per-query loop: this constructor is
      * the ILC initialization the benches time, and per-query allocations
      * would dominate it.
      */
    val tables: Array[Array[Array[Long]]] = {
      val t = Array.tabulate(d)(b => Array.ofDim[Long](bitsPerDim(b), numCols(b)))
      val drops = Array.tabulate(d)(m => new Array[Long](bitsPerDim(m) + 1))
      val prods = Array.tabulate(d)(b => new Array[Long](numCols(b)))
      for (q <- queries) {
        require(q.d == d, s"query dim ${q.d} != $d")
        var m = 0
        while (m < d) {
          var k = 0
          while (k <= bitsPerDim(m)) {
            drops(m)(k) = dropCount(q.lo(m), q.hi(m), k)
            k += 1
          }
          m += 1
        }
        var b = 0
        while (b < d) {
          val prod = prods(b)
          fillDropProducts(b, drops, prod)
          var i = 1
          while (i <= bitsPerDim(b)) {
            val rises = riseCount(q.lo(b), q.hi(b), i)
            if (rises != 0) {
              val row = t(b)(i - 1)
              var c = 0
              while (c < row.length) {
                row(c) += rises * prod(c)
                c += 1
              }
            }
            i += 1
          }
          b += 1
        }
      }
      t
    }

    /** Fill `out(col) = Π_{m≠b} N(D_m^{k_m})` for every column of Table^b,
      * expanding one other-dimension at a time in place (no allocation).
      */
    private def fillDropProducts(b: Int, drops: Array[Array[Long]], out: Array[Long]): Unit = {
      val o = others(b)
      out(0) = 1L
      var size = 1
      var i = 0
      while (i < o.length) {
        val dm = drops(o(i))
        // Expand from high k down so lower segments are still intact.
        var k = dm.length - 1
        while (k >= 0) {
          val base = k * size
          var j = size - 1
          while (j >= 0) {
            out(base + j) = out(j) * dm(k)
            j -= 1
          }
          k -= 1
        }
        size *= dm.length
        i += 1
      }
    }

    /** Σ_q E_σ(q) in `O(d·ℓ)` lookups (Algorithm 2's loop + get_col). */
    def edges(bmc: BMC): Long = {
      require(bmc.d == d && java.util.Arrays.equals(bmc.bitsPerDim, bitsPerDim),
        "BMC shape does not match the tables' (d, ℓ)")
      var e = 0L
      var b = 0
      while (b < d) {
        val o = others(b)
        val st = strides(b)
        var i = 1
        while (i <= bitsPerDim(b)) {
          val gamma = bmc.ranks(b)(i - 1)
          var col = 0L
          var m = 0
          while (m < o.length) {
            col += bmc.countBelow(gamma)(o(m)) * st(m)
            m += 1
          }
          e += tables(b)(i - 1)(col.toInt)
          i += 1
        }
        b += 1
      }
      e
    }

    /** Total local cost `Σ_q S_σ(q) = ΣV − ΣE_σ` (Eq. 10) — O(1) per BMC. */
    def cost(bmc: BMC): BigInt = totalVolume - BigInt(edges(bmc))
  }

  object PatternTables {
    /** Most table cells (`Long`s, 512 MiB) one workload's tables may hold. */
    val MaxCells: Long = 1L << 26

    /** Uniform-ℓ convenience constructor. */
    def apply(queries: Seq[Rect], d: Int, bits: Int): PatternTables =
      new PatternTables(queries, d, Array.fill(d)(bits))
  }
}
