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
    // c(m): bits of dimension m below the current rank.
    val c = new Array[Int](bmc.d)
    var e = 0L
    var r = 0
    while (r < bmc.length) {
      val b = bmc.dims(r)
      val rises = riseCount(q.lo(b), q.hi(b), c(b) + 1)
      if (rises != 0) {
        var prod = 1L
        var m = 0
        while (m < bmc.d && prod != 0) {
          if (m != b) prod *= dropCount(q.lo(m), q.hi(m), c(m))
          m += 1
        }
        e += rises * prod
      }
      c(b) += 1
      r += 1
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
    * A BMC with ℓ_m bits per dimension is a monotone lattice path from 0
    * to (ℓ_0…ℓ_{d−1}): the vertex at rank r is c, the number of bits of
    * each dimension below r, and the rank-r bit of dimension b steps to
    * c + e_b. That step rises order c_b+1 in b while every other dimension
    * m drops order c_m (Definitions 4–6), so Table^b holds one entry per
    * lattice vertex c, in mixed radix with dimension 0 fastest:
    * `T_b[c] = Σ_q N_q(R_b^{c_b+1}) · Π_{m≠b} N_q(D_m^{c_m})`, zero where
    * c_b = ℓ_b. Construction is the O(n)-scan initialization (ILC);
    * [[edges]]/[[cost]] evaluate any BMC with one lookup per rank.
    *
    * All counts are exact `Long`s: every table entry, drop product and edge
    * count is a sum of per-query terms each at most V(q), so the workload
    * is refused unless ΣV(q) ≤ `Long.MaxValue`, and so is a query off the
    * grid. Shapes whose tables exceed [[PatternTables.MaxCells]] cells are
    * refused before anything is allocated.
    */
  final class PatternTables(queries: Seq[Rect], val d: Int, val bitsPerDim: Array[Int]) {
    private def shape: String = s"d=$d, ℓ=${bitsPerDim.mkString("(", ",", ")")}"

    require(bitsPerDim.length == d, s"$shape: ℓ must have d entries")
    require(queries.nonEmpty, "empty workload")

    private val cells = bitsPerDim.foldLeft(BigInt(d))((acc, l) => acc * (l + 1))
    require(cells <= PatternTables.MaxCells,
      s"pattern tables for $shape need $cells cells, over the limit of ${PatternTables.MaxCells}")

    /** Mixed-radix stride of each dimension over the lattice vertices;
      * `stride(d)` is the vertex count Π(ℓ_m+1).
      */
    private val stride: Array[Int] = bitsPerDim.scanLeft(1)((acc, l) => acc * (l + 1))

    /** Σ_q V(q), BMC-independent (computed in the same O(n) scan). */
    val totalVolume: Long = {
      var sum = 0L
      try for (q <- queries) sum = Math.addExact(sum, q.volume)
      catch {
        case _: ArithmeticException => throw new IllegalArgumentException(
          s"workload volume ΣV(q) exceeds Long.MaxValue; its pattern tables ($shape) would overflow")
      }
      sum
    }

    /** tables(b)(c): `T_b[c]` at the vertex index `c = Σ_m c_m·stride(m)`.
      *
      * Per query and dimension b, Alg. 1's product is an outer product of
      * one count vector per dimension (b's rises, the others' drops), added
      * into Table^b by `add`, which walks dimensions d−1 down to 0 and
      * skips zero factors. Every partial product is at most V(q), so the
      * ΣV refusal keeps it exact, and exact `Long` sums are the same in any
      * order. The count vectors are hoisted out of the per-query loop: this
      * constructor is the ILC initialization the benches time.
      */
    val tables: Array[Array[Long]] = {
      val t = Array.fill(d)(new Array[Long](stride(d)))
      val drops = Array.tabulate(d)(m => new Array[Long](bitsPerDim(m) + 1))
      val rises = Array.tabulate(d)(m => new Array[Long](bitsPerDim(m) + 1))
      // row(base + Σ_{m'≤m} k_m'·stride(m')) += w · Π_{m'≤m} f_m'(k_m').
      def add(row: Array[Long], b: Int, m: Int, base: Int, w: Long): Unit = {
        val f = if (m == b) rises(m) else drops(m)
        var k = 0
        if (m == 0) while (k < f.length) { row(base + k) += w * f(k); k += 1 }
        else while (k < f.length) {
          if (f(k) != 0) add(row, b, m - 1, base + k * stride(m), w * f(k))
          k += 1
        }
      }
      for (q <- queries) {
        q.requireOnGrid(bitsPerDim)
        var m = 0
        while (m < d) {
          var k = 0
          while (k <= bitsPerDim(m)) {
            drops(m)(k) = dropCount(q.lo(m), q.hi(m), k)
            if (k < bitsPerDim(m)) rises(m)(k) = riseCount(q.lo(m), q.hi(m), k + 1)
            k += 1
          }
          m += 1
        }
        var b = 0
        while (b < d) {
          if (rises(b).exists(_ != 0)) add(t(b), b, d - 1, 0, 1L)
          b += 1
        }
      }
      t
    }

    /** Σ_q E_σ(q): one lookup per rank along σ's lattice path
      * (Algorithm 2).
      */
    def edges(bmc: BMC): Long = {
      require(bmc.d == d && java.util.Arrays.equals(bmc.bitsPerDim, bitsPerDim),
        "BMC shape does not match the tables' (d, ℓ)")
      var e = 0L
      var v = 0
      var r = 0
      while (r < bmc.length) {
        val b = bmc.dims(r)
        e += tables(b)(v)
        v += stride(b)
        r += 1
      }
      e
    }

    /** Total local cost `Σ_q S_σ(q) = ΣV − ΣE_σ` (Eq. 10) — O(1) per BMC.
      * Exact in `Long`, since 0 ≤ ΣE_σ ≤ ΣV ≤ `Long.MaxValue`.
      */
    def cost(bmc: BMC): BigInt = BigInt(totalVolume - edges(bmc))
  }

  object PatternTables {
    /** Most table cells (`Long`s, 512 MiB) one workload's tables may hold. */
    val MaxCells: Long = 1L << 26

    /** Uniform-ℓ convenience constructor. */
    def apply(queries: Seq[Rect], d: Int, bits: Int): PatternTables =
      new PatternTables(queries, d, Array.fill(d)(bits))
  }
}
