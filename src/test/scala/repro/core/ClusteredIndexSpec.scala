package repro.core

import java.util.Random
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Block-access simulation of an SFC-clustered B⁺-tree (DESIGN.md § 4). */
class ClusteredIndexSpec extends AnyFunSuite {

  private def bruteForce(points: Array[Array[Long]], curve: SpaceFillingCurve,
                         b: Int, q: Rect): Long = {
    val sorted = points.zipWithIndex
      .sortBy { case (p, i) => (curve.value(p), i) }
      .map(_._1)
    sorted.zipWithIndex.collect { case (p, i) if q.contains(p) => i / b }.distinct.length
  }

  test("block accesses match an independent brute-force computation") {
    val rng = new Random(1)
    val pts = Array.fill(500)(Array(rng.nextInt(16).toLong, rng.nextInt(16).toLong))
    val curve = BMC.zOrder(2, 4)
    val idx = ClusteredIndex.build(pts, curve, 16)
    for (_ <- 1 to 30) {
      val x0 = rng.nextInt(12).toLong; val y0 = rng.nextInt(12).toLong
      val q = Rect.of2d(x0, x0 + 3, y0, y0 + 3)
      assert(idx.blockAccesses(q) == bruteForce(pts, curve, 16, q), q.show)
    }
  }

  test("a query matching nothing touches zero blocks") {
    val pts = Array(Array(0L, 0L), Array(1L, 1L))
    val idx = ClusteredIndex.build(pts, BMC.zOrder(2, 2), 4)
    assert(idx.blockAccesses(Rect.of2d(2, 3, 2, 3)) == 0)
  }

  test("a query matching everything touches ceil(N/B) blocks") {
    val rng = new Random(2)
    val pts = Array.fill(103)(Array(rng.nextInt(8).toLong, rng.nextInt(8).toLong))
    val idx = ClusteredIndex.build(pts, BMC.zOrder(2, 3), 10)
    assert(idx.blockAccesses(Rect.of2d(0, 7, 0, 7)) == 11) // ceil(103/10)
  }

  test("block size 1: accesses equal the number of matching points") {
    val pts = Array(Array(0L, 0L), Array(1L, 0L), Array(5L, 5L), Array(1L, 1L))
    val idx = ClusteredIndex.build(pts, BMC.zOrder(2, 3), 1)
    assert(idx.blockAccesses(Rect.of2d(0, 1, 0, 1)) == 3)
  }

  test("fewer sections means fewer block accesses (paper Example 3)") {
    // Points along one row; a curve storing the row contiguously beats a
    // curve that scatters it.
    val pts = (0L until 64L).map(x => Array(x, 3L)).toArray
    val rowQuery = Rect.of2d(0, 63, 3, 3)
    val contiguous = TestRefs.fromString("YYYYYYXXXXXX") // x varies fastest
    val scattered = TestRefs.fromString("XXXXXXYYYYYY") // y varies fastest
    val a = ClusteredIndex.build(pts, contiguous, 8).blockAccesses(rowQuery)
    val b = ClusteredIndex.build(pts, scattered, 8).blockAccesses(rowQuery)
    assert(a == 8) // 64 points / 8 per block, all contiguous
    assert(a <= b)
  }

  test("avgBlockAccesses averages over the workload") {
    val pts = (0L until 32L).map(x => Array(x, 0L)).toArray
    val idx = ClusteredIndex.build(pts, BMC.lexicographic(2, 5, 0), 8)
    val qs = Seq(Rect.of2d(0, 31, 0, 0), Rect.of2d(0, 7, 0, 0))
    assert(idx.avgBlockAccesses(qs) == (4 + 1) / 2.0)
  }

  test("identical coordinates are handled (duplicate curve values)") {
    val pts = Array.fill(20)(Array(3L, 3L)) ++ Array.fill(5)(Array(1L, 1L))
    val idx = ClusteredIndex.build(pts, BMC.zOrder(2, 2), 8)
    // 5 points at (1,1) occupy block 0; 20 at (3,3) span blocks 0..3.
    assert(idx.blockAccesses(Rect.of2d(1, 1, 1, 1)) == 1)
    assert(idx.blockAccesses(Rect.of2d(3, 3, 3, 3)) == 4)
  }

  test("buildWithValues matches build for precomputed values") {
    val rng = new Random(3)
    val pts = Array.fill(100)(Array(rng.nextInt(8).toLong, rng.nextInt(8).toLong))
    val curve = new Hilbert(2, 3)
    val a = ClusteredIndex.build(pts, curve, 7)
    val b = ClusteredIndex.buildWithValues(pts, pts.map(curve.value), 7)
    for (_ <- 1 to 10) {
      val x0 = rng.nextInt(6).toLong
      val q = Rect.of2d(x0, x0 + 2, 0, 7)
      assert(a.blockAccesses(q) == b.blockAccesses(q))
    }
  }

  test("invalid block sizes are rejected") {
    intercept[IllegalArgumentException](
      ClusteredIndex.build(Array(Array(0L, 0L)), BMC.zOrder(2, 1), 0))
  }

  test("dimensionality mismatches are rejected") {
    val idx = ClusteredIndex.build(Array(Array(0L, 0L)), BMC.zOrder(2, 2), 4)
    intercept[IllegalArgumentException](idx.blockAccesses(Rect(Array(0L), Array(1L))))
  }

  test("empty point sets and d=0 points index nothing") {
    val empty = ClusteredIndex.build(Array.empty[Array[Long]], BMC.zOrder(2, 2), 4)
    val zeroDim = ClusteredIndex.buildWithValues(Array(Array.empty[Long], Array.empty[Long]), Array(1L, 0L), 4)
    for (idx <- Seq(empty, zeroDim)) {
      assert(idx.size == 0 && idx.d == 0)
      assert(idx.blockAccesses(Rect(Array.empty[Long], Array.empty[Long])) == 0)
    }
    intercept[IllegalArgumentException](
      ClusteredIndex.buildWithValues(Array(Array(0L, 0L)), Array(0L, 1L), 4))
  }

  test("block offsets do not overflow Int for large block sizes") {
    val pts = Array.tabulate(5)(i => Array(i.toLong, 0L))
    val idx = ClusteredIndex.build(pts, BMC.zOrder(2, 3), Int.MaxValue)
    assert(idx.blockAccesses(Rect.of2d(0, 7, 0, 7)) == 1)
    assert(idx.blockAccesses(Rect.of2d(4, 4, 0, 0)) == 1)
  }

  private def check(p: Prop, minTests: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), p)
    assert(res.passed, res.status.toString)
  }

  /** A random BMC, the Hilbert curve or a piecewise BMC split on dimension 0. */
  private def curveOf(kind: Int, d: Int, l: Int, rng: Random): SpaceFillingCurve = kind match {
    case 0 => BMC.random(d, l, rng)
    case 1 => new Hilbert(d, l)
    case _ =>
      val rem = Array.tabulate(d)(i => if (i == 0) l - 1 else l)
      val shuffled = BMC(new scala.util.Random(rng).shuffle(rem.indices.flatMap(i => Seq.fill(rem(i))(i))), d)
      new PiecewiseBMC(PiecewiseBMC.Split(0, PiecewiseBMC.Tail(PiecewiseBMC.interleave(rem)),
        PiecewiseBMC.Tail(shuffled)), d, l)
  }

  test("property: zone-map block accesses equal the full scan") {
    val gen = for {
      d <- Gen.oneOf(2, 3); l <- Gen.choose(2, 4); b <- Gen.oneOf(1, 3, 128)
      n <- Gen.choose(1, 700); kind <- Gen.choose(0, 2); seed <- Gen.long
    } yield (d, l, b, if (b > 1 && n % b == 0) n + 1 else n, kind, seed)
    check(Prop.forAll(gen) { case (d, l, b, n, kind, seed) =>
      val rng = new Random(seed)
      val k = 1L << l
      // Few cells per point: many points share a cell and a curve value.
      val pts = Array.fill(n)(Array.fill(d)(rng.nextInt(k.toInt).toLong))
      val curve = curveOf(kind, d, l, rng)
      val values = pts.map(curve.value)
      val idx = ClusteredIndex.build(pts, curve, b)
      // Bounding boxes of blocks and of windows straddling two blocks, as
      // they are and grown or shrunk by a cell in one dimension.
      val order = TestRefs.stableOrder(values)
      val edges = (0 until 6).flatMap { j =>
        val start = if (j % 2 == 0) rng.nextInt((n - 1) / b + 1) * b else rng.nextInt(n)
        val members = order.slice(start, math.min(n, start + b)).map(pts)
        val lo = Array.tabulate(d)(i => members.map(_(i)).min)
        val hi = Array.tabulate(d)(i => members.map(_(i)).max)
        val dim = rng.nextInt(d)
        val grown = hi.clone(); grown(dim) += 1
        val shrunk = lo.clone(); shrunk(dim) = math.min(hi(dim), lo(dim) + 1)
        Seq(Rect(lo, hi), Rect(lo, grown), Rect(shrunk, hi))
      }
      val randoms = Seq.fill(10) {
        val a = Array.fill(d)(rng.nextInt(k.toInt).toLong)
        val c = Array.fill(d)(rng.nextInt(k.toInt).toLong)
        Rect(a.indices.map(i => math.min(a(i), c(i))).toArray, a.indices.map(i => math.max(a(i), c(i))).toArray)
      }
      val everything = Rect(Array.fill(d)(0L), Array.fill(d)(k - 1))
      val nothing = Rect(Array.fill(d)(k), Array.fill(d)(2 * k))
      (Seq(everything, nothing) ++ edges ++ randoms).forall(q =>
        idx.blockAccesses(q) == TestRefs.fullScanBlockAccesses(pts, values, b, q)) &&
        idx.blockAccesses(everything) == (n + b - 1) / b && idx.blockAccesses(nothing) == 0
    })
  }

  test("property: the radix order equals a boxed stable sort by (value, index)") {
    val value = Gen.frequency(
      3 -> Gen.long,
      3 -> Gen.choose(-4L, 4L),
      1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1, 0L, -1L),
      1 -> Gen.choose(0L, 1L << 20).map(_ << 24))
    check(Prop.forAll(Gen.choose(0, 400).flatMap(Gen.listOfN(_, value))) { vs =>
      val values = vs.toArray
      ClusteredIndex.sortedOrder(values).sameElements(TestRefs.stableOrder(values))
    })
  }
}
