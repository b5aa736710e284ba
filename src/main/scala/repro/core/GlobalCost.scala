package repro.core

/** Global cost of range queries under a BMC (Section 4.1).
  *
  * The global cost of a query is the curve-value span between its corner
  * cells, `F_σ(p_e) − F_σ(p_s) + 1` (Definition 2, Eq. 5). Costs are exact
  * `BigInt`s: with many queries and large bit budgets the sum exceeds a
  * `Long`. Both GC and NGC sum in the two `Long` words of [[Sum]] and build
  * one `BigInt` per evaluation.
  */
object GlobalCost {

  /** The one accumulator of GC and NGC: `n + Σ a·2^r` over terms added at
    * ranks `r < L`, exact in two `Long` words.
    *
    * Why two words suffice: `BMC` refuses L > 62, and the coefficients that
    * one evaluation adds at a rank total at most n ≤ `Int.MaxValue` in
    * magnitude (GC adds A[j][k] once, NGC adds n bit differences in
    * {−1, 0, 1}), and so does every partial sum of them. `lo` takes a·2^r for
    * r < 32 and `hi` takes a·2^(r−32) for r ≥ 32, so at every step
    * |lo + n| ≤ n·2^32 < 2^63 and |hi| < n·2^30: neither word can overflow,
    * in any order of the terms, and the cost is `hi·2^32 + lo + n`.
    */
  private final class Sum {
    private var lo = 0L
    private var hi = 0L

    def add(a: Long, r: Int): Unit = if (r < 32) lo += a << r else hi += a << (r - 32)

    def result(n: Int): BigInt = (BigInt(hi) << 32) + (lo + n)
  }

  /** NGC: the naive baseline — Eq. 5 evaluated per query, `O(n·d·ℓ)` per
    * candidate BMC. It reads σ as [[Estimator.cost]] does, one pass over
    * its ranks, adding `bit_k(hi_j) − bit_k(lo_j)` at the rank that carries
    * bit k of dimension j. A query off the BMC's grid is refused.
    */
  def naive(queries: Seq[Rect], bmc: BMC): BigInt = {
    // Read once: with `bmc.dims` and `bmc.bitOfDim` read inside the loop,
    // NGC took about 12% longer (d=2, ℓ=10, n=1024, on a 4-vCPU VM).
    val dims = bmc.dims
    val bitOfDim = bmc.bitOfDim
    val sum = new Sum
    var n = 0
    for (q <- queries) {
      q.requireOnGrid(bmc.bitsPerDim)
      var r = 0
      while (r < dims.length) {
        val j = dims(r)
        val k = bitOfDim(r)
        sum.add(((q.hi(j) >>> k) & 1L) - ((q.lo(j) >>> k) & 1L), r)
        r += 1
      }
      n += 1
    }
    sum.result(n)
  }

  /** GC: the closed-form estimator (Eq. 6).
    *
    * Construction performs the O(n) initialization scan (IGC) computing the
    * BMC-independent table `A[j][k] = Σ_q (bit_k(hi_j) − bit_k(lo_j))`;
    * [[cost]] then evaluates any BMC in `O(d·ℓ)` time. A query off the
    * grid is refused.
    *
    * @param queries     the workload Q
    * @param d           dimensionality
    * @param bitsPerDim  ℓ_j for each dimension (uniform ℓ in the paper)
    */
  final class Estimator(queries: Seq[Rect], val d: Int, val bitsPerDim: Array[Int]) {
    require(bitsPerDim.length == d, s"d=$d, ℓ=${bitsPerDim.mkString("(", ",", ")")}: ℓ must have d entries")
    require(queries.nonEmpty, "empty workload")

    /** Number of queries n (the `+ n` term of Eq. 6). */
    val n: Int = queries.size

    /** A_j^k of Eq. 6, computed once during the initialization scan. */
    val A: Array[Array[Long]] = {
      val a = Array.tabulate(d)(j => new Array[Long](bitsPerDim(j)))
      for (q <- queries) {
        q.requireOnGrid(bitsPerDim)
        var j = 0
        while (j < d) {
          var k = 0
          while (k < bitsPerDim(j)) {
            a(j)(k) += ((q.hi(j) >>> k) & 1L) - ((q.lo(j) >>> k) & 1L)
            k += 1
          }
          j += 1
        }
      }
      a
    }

    /** Total global cost of the workload under `bmc` — `O(d·ℓ)` = O(1). */
    def cost(bmc: BMC): BigInt = {
      require(bmc.d == d && java.util.Arrays.equals(bmc.bitsPerDim, bitsPerDim),
        "BMC shape does not match the estimator's (d, ℓ)")
      val sum = new Sum
      var r = 0
      while (r < bmc.length) {
        sum.add(A(bmc.dims(r))(bmc.bitOfDim(r)), r)
        r += 1
      }
      sum.result(n)
    }
  }

  object Estimator {
    /** Uniform-ℓ convenience constructor. */
    def apply(queries: Seq[Rect], d: Int, bits: Int): Estimator =
      new Estimator(queries, d, Array.fill(d)(bits))
  }
}
