package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Global cost estimation (Section 4.1, Eq. 5–6). */
class GlobalCostSpec extends AnyFunSuite {

  private def span(q: Rect, bmc: BMC): BigInt =
    BigInt(bmc.value(q.hi)) - BigInt(bmc.value(q.lo)) + 1

  test("naive global cost of one query equals the curve-value span (Corollary 1)") {
    val bmc = BMC.zOrder(2, 4)
    val q = Rect.of2d(3, 9, 2, 12)
    assert(GlobalCost.naive(Seq(q), bmc) == span(q, bmc))
  }

  test("naive global cost sums spans over the workload") {
    val bmc = TestRefs.fromString("YXXYXY")
    val qs = Seq(Rect.of2d(0, 1, 0, 1), Rect.of2d(2, 5, 1, 7), Rect.of2d(4, 4, 3, 3))
    assert(GlobalCost.naive(qs, bmc) == qs.map(span(_, bmc)).sum)
  }

  test("a single-cell query has global cost 1 under every BMC") {
    val q = Rect.of2d(5, 5, 3, 3)
    for (bmc <- TestRefs.allBMCs(2, 3))
      assert(GlobalCost.naive(Seq(q), bmc) == BigInt(1), bmc.toString)
  }

  test("estimator A table matches a direct bit-difference scan") {
    val qs = Seq(Rect.of2d(1, 6, 2, 7), Rect.of2d(0, 3, 4, 5))
    val est = GlobalCost.Estimator(qs, 2, 3)
    for (j <- 0 until 2; k <- 0 until 3) {
      val expected = qs.map(q => ((q.hi(j) >> k) & 1) - ((q.lo(j) >> k) & 1)).sum
      assert(est.A(j)(k) == expected, s"A($j)($k)")
    }
  }

  // The paper's core exactness claim: Eq. 6 equals Eq. 5 ("without loss of
  // accuracy") for every BMC.
  for (d <- 2 to 4; l <- 2 to 4) {
    test(s"closed form equals naive for random workloads (d=$d, l=$l)") {
      val rng = new Random(d * 10 + l)
      val qs = Workloads.randomRects(d, 20, 1L << l, l, rng.nextLong())
      val est = GlobalCost.Estimator(qs.toSeq, d, l)
      for (_ <- 1 to 25) {
        val bmc = BMC.random(d, l, rng)
        assert(est.cost(bmc) == GlobalCost.naive(qs.toSeq, bmc), bmc.toString)
      }
    }
  }

  test("closed form equals naive for all 20 BMCs at d=2, l=3") {
    val qs = Workloads.randomRects(2, 16, 8, 3, 99)
    val est = GlobalCost.Estimator(qs.toSeq, 2, 3)
    for (bmc <- TestRefs.allBMCs(2, 3))
      assert(est.cost(bmc) == GlobalCost.naive(qs.toSeq, bmc), bmc.toString)
  }

  test("one initialization serves many BMCs (estimator is immutable)") {
    val qs = Workloads.randomRects(2, 8, 16, 5, 5)
    val est = GlobalCost.Estimator(qs.toSeq, 2, 5)
    val before = est.A.map(_.toSeq).toSeq
    val rng = new Random(3)
    for (_ <- 1 to 10) est.cost(BMC.random(2, 5, rng))
    assert(est.A.map(_.toSeq).toSeq == before)
  }

  test("the n term: point queries contribute exactly n") {
    val qs = Seq.tabulate(7)(i => Rect.of2d(i, i, i, i))
    val est = GlobalCost.Estimator(qs, 2, 3)
    for (bmc <- Seq(BMC.zOrder(2, 3), BMC.lexicographic(2, 3, 0)))
      assert(est.cost(bmc) == BigInt(7))
  }

  test("global cost is larger when bits of a wide-range dimension sit high") {
    // A query spanning all of y but one cell of x: placing y's bits high
    // makes the span huge; placing them low keeps it small.
    val q = Rect.of2d(3, 3, 0, 7)
    val yLow = TestRefs.fromString("XXXYYY")
    val yHigh = TestRefs.fromString("YYYXXX")
    assert(GlobalCost.naive(Seq(q), yLow) < GlobalCost.naive(Seq(q), yHigh))
  }

  test("estimator rejects mismatched BMC shape") {
    val qs = Seq(Rect.of2d(0, 1, 0, 1))
    val est = GlobalCost.Estimator(qs, 2, 3)
    intercept[IllegalArgumentException](est.cost(BMC.zOrder(2, 4)))
    intercept[IllegalArgumentException](est.cost(BMC.zOrder(3, 3)))
    // d disagrees with the length of ℓ: refused at construction.
    for (d <- Seq(1, 3)) {
      val e = intercept[IllegalArgumentException](new GlobalCost.Estimator(qs, d, Array(3, 3)))
      assert(e.getMessage.contains(s"d=$d, ℓ=(3,3)"), e.getMessage)
    }
  }

  test("estimator rejects empty workloads") {
    intercept[IllegalArgumentException](GlobalCost.Estimator(Seq.empty, 2, 3))
  }

  test("estimator rejects queries of the wrong dimensionality") {
    intercept[IllegalArgumentException](
      GlobalCost.Estimator(Seq(Rect(Array(0L), Array(1L))), 2, 3))
  }

  test("GC and NGC refuse a query off the grid instead of aliasing it") {
    // 257 cells in x at ℓ=8: read bit by bit, x=256 aliases to 0 and GC = 1.
    val wide = Rect.of2d(0, 256, 0, 0)
    val e = intercept[IllegalArgumentException](GlobalCost.Estimator(Seq(wide), 2, 8))
    assert(e.getMessage.contains("grid"), e.getMessage)
    intercept[IllegalArgumentException](GlobalCost.naive(Seq(wide), BMC.zOrder(2, 8)))
    intercept[IllegalArgumentException](GlobalCost.Estimator(Seq(Rect.of2d(-3, 2, 0, 0)), 2, 8))
  }

  test("non-uniform bits per dimension: closed form equals naive") {
    val bitsPerDim = Array(4, 2)
    val rng = new Random(17)
    val qs = (1 to 10).map { _ =>
      val x0 = rng.nextInt(12).toLong; val x1 = x0 + rng.nextInt(16 - x0.toInt)
      val y0 = rng.nextInt(3).toLong; val y1 = y0 + rng.nextInt(4 - y0.toInt)
      Rect.of2d(x0, x1, y0, y1)
    }
    val est = new GlobalCost.Estimator(qs, 2, bitsPerDim)
    for (_ <- 1 to 20) {
      val dims = new scala.util.Random(rng).shuffle(Seq(0, 0, 0, 0, 1, 1))
      val bmc = BMC(dims, 2)
      assert(est.cost(bmc) == GlobalCost.naive(qs, bmc), bmc.toString)
    }
  }

  test("costs can exceed Long range without overflow (BigInt arithmetic)") {
    val l = 31
    val q = Rect.of2d(0, (1L << l) - 1, 0, (1L << l) - 1)
    val qs = Seq.fill(100)(q)
    val est = GlobalCost.Estimator(qs, 2, l)
    val c = est.cost(BMC.zOrder(2, l))
    assert(c == GlobalCost.naive(qs, BMC.zOrder(2, l)))
    // 100·(4^31−1)+100 = 100·4^31 ≈ 2^68.6
    assert(c == BigInt(100) * BigInt(4).pow(31))
  }

  // GC and NGC sum in one two-word accumulator, so GC = NGC alone cannot
  // show that either is exact: both are checked against Corollary 1's span
  // sum in BigInt, up to L = 62 and with negative A entries.
  for (bits <- Seq(Array(5), Array(62), Array(4, 2), Array(31, 31), Array(2, 3, 5),
                   Array(20, 21, 21), Array(1, 2, 3, 4), Array(15, 15, 16, 16))) {
    test(s"GC and NGC equal the Corollary 1 span sum (ℓ=${bits.mkString(",")})") {
      val rng = new Random(bits.sum * 31L + bits.length)
      val d = bits.length
      def coord(l: Int): Long = rng.nextLong() >>> (64 - l)
      // 16 random boxes, then 24 that step from an odd lo to hi = lo + 1
      // wherever ℓ_j ≥ 2: every such A[j][0] is at most 16 − 24 < 0.
      val qs = Seq.fill(16) {
        val (a, b) = (bits.map(coord), bits.map(coord))
        Rect(a.zip(b).map(p => math.min(p._1, p._2)), a.zip(b).map(p => math.max(p._1, p._2)))
      } ++ Seq.fill(24) {
        val lo = bits.map(l => if (l < 2) 0L else coord(l) % ((1L << l) - 2) | 1L)
        Rect(lo, lo.map(_ + 1))
      }
      val est = new GlobalCost.Estimator(qs, d, bits)
      assert(est.A.exists(_(0) < 0), "the workload should have negative A entries")
      val dims = bits.indices.flatMap(j => Seq.fill(bits(j))(j))
      val shuffler = new scala.util.Random(rng.nextLong())
      for (_ <- 1 to 20) {
        val bmc = BMC(shuffler.shuffle(dims), d)
        val ref = qs.map(span(_, bmc)).sum
        assert(est.cost(bmc) == ref, bmc.toString)
        assert(GlobalCost.naive(qs, bmc) == ref, bmc.toString)
      }
    }
  }

  test("2^16 full-grid queries at L = 62 cost exactly n·2^62 under GC and NGC") {
    val n = 1 << 16
    for (bits <- Seq(Array(31, 31), Array(20, 21, 21))) {
      val q = Rect(bits.map(_ => 0L), bits.map(l => (1L << l) - 1))
      val qs = Seq.fill(n)(q)
      val est = new GlobalCost.Estimator(qs, bits.length, bits)
      val dims = bits.indices.flatMap(j => Seq.fill(bits(j))(j))
      for (bmc <- Seq(BMC(dims, bits.length), BMC(dims.reverse, bits.length))) {
        assert(est.cost(bmc) == BigInt(n) << 62, bmc.toString)
        assert(GlobalCost.naive(qs, bmc) == BigInt(n) << 62, bmc.toString)
      }
    }
  }
}
