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

  /** N(R_b^k): rise patterns of order `k ≥ 1` inside the inclusive
    * coordinate range `[s, e]` — transitions from `a·2^k + (2^(k−1)−1)` to
    * `a·2^k + 2^(k−1)` with both endpoints in range (Section 4.2.1).
    * Division by 2^k is an arithmetic shift (`-((-x) >> k)` for the
    * ceiling), exact for on-grid ranges, where k ≤ ℓ ≤ 62.
    */
  def riseCount(s: Long, e: Long, k: Int): Long = {
    require(k >= 1, s"rise pattern order must be ≥ 1, got $k")
    val half = 1L << (k - 1)
    val aMax = (e - half) >> k
    val aMin = math.max(0L, -((half - 1 - s) >> k))
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
      val aMax = ((e + 1) >> k) - 1
      val aMin = math.max(0L, -((-s) >> k))
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
      * Queries are taken in blocks of at most [[PatternTables.Block]] (1,024),
      * and each block's counts are columns: per dimension m, column k ≤ ℓ_m
      * of `cols(m)` holds N(D_m^k) of every query of the block, column
      * ℓ_m+1+k holds N(R_m^{k+1}), and the last column is scratch for a
      * product. For each b, `walk` takes the dimensions m ≠ b from d−1 down
      * and multiplies one drop column of each into a running product
      * column, skipping a column that is zero for the whole block. At the
      * bottom each entry is one dot product,
      * `T_b[c] += Σ_i rises_b[c_b](i) · prod(i)`. Every partial product is
      * at most V(q), so the ΣV refusal keeps it exact, and exact `Long`
      * sums are the same in any order. The scratch, at most
      * 2·Σ(ℓ_m+1)·Block `Long`s, lives only while the tables are built:
      * this constructor is the ILC initialization the benches time.
      */
    val tables: Array[Array[Long]] = {
      val t = Array.fill(d)(new Array[Long](stride(d)))
      val width = math.min(PatternTables.Block, queries.size)
      val block = new Array[Rect](width)
      val cols = Array.tabulate(d)(m => new Array[Long]((2 * bitsPerDim(m) + 2) * width))
      // nonZero(m)(j): column j of cols(m) is nonzero somewhere in the block.
      val nonZero = Array.tabulate(d)(m => new Array[Boolean](2 * bitsPerDim(m) + 1))
      // Adds the block's first n queries into t(b) below the vertex base;
      // the product of the drop columns taken so far starts at src(off), or
      // is all ones when src is null.
      def walk(n: Int, b: Int, m: Int, base: Int, src: Array[Long], off: Int): Unit =
        if (m < 0) {
          val rise0 = bitsPerDim(b) + 1
          var k = 0
          while (k < bitsPerDim(b)) {
            if (nonZero(b)(rise0 + k))
              t(b)(base + k * stride(b)) += PatternTables.dot(cols(b), (rise0 + k) * width, src, off, n)
            k += 1
          }
        } else if (m == b) walk(n, b, m - 1, base, src, off)
        else {
          val c = cols(m)
          val prod = (2 * bitsPerDim(m) + 1) * width
          var k = 0
          while (k <= bitsPerDim(m)) {
            if (nonZero(m)(k)) {
              if (src == null) walk(n, b, m - 1, base + k * stride(m), c, k * width)
              else {
                PatternTables.multiply(c, prod, c, k * width, src, off, n)
                walk(n, b, m - 1, base + k * stride(m), c, prod)
              }
            }
            k += 1
          }
        }
      // Counts the block's first n queries into the columns, then adds them.
      def flush(n: Int): Unit = {
        var m = 0
        while (m < d) {
          val c = cols(m)
          val rise0 = bitsPerDim(m) + 1
          var k = 0
          while (k <= bitsPerDim(m)) {
            var dropsAny, risesAny = 0L
            var i = 0
            while (i < n) {
              val q = block(i)
              val lo = q.lo(m)
              val hi = q.hi(m)
              val drop = dropCount(lo, hi, k)
              c(k * width + i) = drop
              dropsAny |= drop
              if (k < bitsPerDim(m)) {
                val rise = riseCount(lo, hi, k + 1)
                c((rise0 + k) * width + i) = rise
                risesAny |= rise
              }
              i += 1
            }
            nonZero(m)(k) = dropsAny != 0
            if (k < bitsPerDim(m)) nonZero(m)(rise0 + k) = risesAny != 0
            k += 1
          }
          m += 1
        }
        var b = 0
        while (b < d) { walk(n, b, d - 1, 0, null, 0); b += 1 }
      }
      var n = 0
      for (q <- queries) {
        q.requireOnGrid(bitsPerDim)
        block(n) = q
        n += 1
        if (n == width) { flush(n); n = 0 }
      }
      if (n > 0) flush(n)
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

    /** Queries per block of the table construction's count columns. */
    private[core] final val Block = 1024

    /** Σ_i a(ao+i)·b(bo+i) over i < n; b null stands for all ones. */
    private def dot(a: Array[Long], ao: Int, b: Array[Long], bo: Int, n: Int): Long = {
      var sum = 0L
      var i = 0
      if (b == null) while (i < n) { sum += a(ao + i); i += 1 }
      else while (i < n) { sum += a(ao + i) * b(bo + i); i += 1 }
      sum
    }

    /** dst(o+i) = a(ao+i)·b(bo+i) for i < n. */
    private def multiply(dst: Array[Long], o: Int, a: Array[Long], ao: Int, b: Array[Long], bo: Int, n: Int): Unit = {
      var i = 0
      while (i < n) { dst(o + i) = a(ao + i) * b(bo + i); i += 1 }
    }

    /** Uniform-ℓ convenience constructor. */
    def apply(queries: Seq[Rect], d: Int, bits: Int): PatternTables =
      new PatternTables(queries, d, Array.fill(d)(bits))
  }
}
