package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Local cost estimation (Section 4.2): rise/drop patterns, directed-edge
  * counting, pattern tables, and Eq. 3/7.
  */
class LocalCostSpec extends AnyFunSuite {

  // ---------- rise / drop pattern counting formulas ----------

  for (k <- 1 to 5) {
    test(s"riseCount matches enumeration for k=$k over many ranges") {
      val rng = new Random(k)
      for (_ <- 1 to 200) {
        val s = rng.nextInt(64).toLong
        val e = s + rng.nextInt(64)
        assert(LocalCost.riseCount(s, e, k) == TestRefs.exactRiseCount(s, e, k),
          s"[$s,$e] k=$k")
      }
    }
  }

  for (k <- 0 to 5) {
    test(s"dropCount matches enumeration for k=$k over many ranges") {
      val rng = new Random(100 + k)
      for (_ <- 1 to 200) {
        val s = rng.nextInt(64).toLong
        val e = s + rng.nextInt(64)
        assert(LocalCost.dropCount(s, e, k) == TestRefs.exactDropCount(s, e, k),
          s"[$s,$e] k=$k")
      }
    }
  }

  for (l <- Seq(16, 31, 62)) {
    test(s"riseCount and dropCount equal the floorDiv formulas at every order k ≤ ℓ=$l") {
      val rng = new Random(l)
      val top = (1L << l) - 1
      // Coordinates at and near both grid edges, near powers of two, and
      // anywhere on the grid.
      def coord(): Long = rng.nextInt(4) match {
        case 0 => rng.nextInt(8).toLong
        case 1 => top - rng.nextInt(8)
        case 2 => math.min(top, math.max(0L, (1L << rng.nextInt(l)) + rng.nextInt(5) - 2))
        case _ => rng.nextLong() & top
      }
      for (k <- 0 to l; _ <- 1 to 200) {
        val (a, b) = (coord(), coord())
        val (s, e) = (math.min(a, b), math.max(a, b))
        if (k >= 1) assert(LocalCost.riseCount(s, e, k) == TestRefs.floorDivRiseCount(s, e, k), s"R^$k over [$s,$e]")
        assert(LocalCost.dropCount(s, e, k) == TestRefs.floorDivDropCount(s, e, k), s"D^$k over [$s,$e]")
      }
    }
  }

  test("riseCount: paper example — x in [0,4] has two R^1, one R^2, one R^3") {
    assert(LocalCost.riseCount(0, 4, 1) == 2) // (0→1), (2→3)
    assert(LocalCost.riseCount(0, 4, 2) == 1) // (1→2)
    assert(LocalCost.riseCount(0, 4, 3) == 1) // (3→4)
  }

  test("dropCount: paper example — y in [2,3] has one D^1 and D^0 = 2") {
    assert(LocalCost.dropCount(2, 3, 0) == 2)
    assert(LocalCost.dropCount(2, 3, 1) == 1) // (3 → 2)
    assert(LocalCost.dropCount(2, 3, 2) == 0)
    assert(LocalCost.dropCount(2, 3, 3) == 0)
  }

  test("dropCount: D^0 over x in [0,4] is the range length 5") {
    assert(LocalCost.dropCount(0, 4, 0) == 5)
  }

  test("riseCount of a single cell is zero for every order") {
    for (k <- 1 to 4) assert(LocalCost.riseCount(9, 9, k) == 0)
  }

  test("pattern order bounds are enforced") {
    intercept[IllegalArgumentException](LocalCost.riseCount(0, 3, 0))
    intercept[IllegalArgumentException](LocalCost.dropCount(0, 3, -1))
  }

  // ---------- directed edges: Eq. 9 vs exhaustive enumeration ----------

  test("paper Section 4.2.1 worked example: q=[0,4]×[2,3], σ=XYXYXY") {
    val bmc = TestRefs.fromString("XYXYXY")
    val q = Rect.of2d(0, 4, 2, 3)
    assert(LocalCost.edgesViaPatterns(q, bmc) == 7)
    assert(LocalCost.sections(q, bmc) == 3) // 10 cells − 7 edges
    assert(TestRefs.exactSections(q, bmc) == 3)
  }

  test("Figure 4a: q=[2,3]×[2,5] under XYXYXY has 3 sections, 5 edges") {
    // The figure's q covers 8 cells split into sections [20,23],[36,39],... —
    // verified here against the exhaustive reference.
    val bmc = TestRefs.fromString("XYXYXY")
    val q = Rect.of2d(2, 3, 2, 5)
    assert(q.volume == 8)
    assert(LocalCost.edgesViaPatterns(q, bmc) == TestRefs.exactEdges(q, bmc))
    assert(LocalCost.sections(q, bmc) == TestRefs.exactSections(q, bmc))
  }

  for (d <- 2 to 4; l <- 2 to 3) {
    test(s"edgesViaPatterns equals exhaustive edge count (d=$d, l=$l)") {
      val rng = new Random(d * 7 + l)
      for (_ <- 1 to 30) {
        val bmc = BMC.random(d, l, rng)
        val q = randomRect(d, l, rng)
        assert(LocalCost.edgesViaPatterns(q, bmc) == TestRefs.exactEdges(q, bmc),
          s"$bmc over ${q.show}")
      }
    }
  }

  test("edgesViaPatterns equals exhaustive count for all 20 BMCs (d=2, l=3)") {
    val rng = new Random(42)
    for (bmc <- TestRefs.allBMCs(2, 3); _ <- 1 to 5) {
      val q = randomRect(2, 3, rng)
      assert(LocalCost.edgesViaPatterns(q, bmc) == TestRefs.exactEdges(q, bmc),
        s"$bmc over ${q.show}")
    }
  }

  test("Eq. 3: edges + sections = cells, for many random cases") {
    val rng = new Random(8)
    for (_ <- 1 to 50) {
      val bmc = BMC.random(2, 4, rng)
      val q = randomRect(2, 4, rng)
      val e = LocalCost.edgesViaPatterns(q, bmc)
      val s = LocalCost.sections(q, bmc)
      assert(e + s == q.volume, s"$bmc over ${q.show}")
    }
  }

  test("a full-grid query is a single section under every BMC") {
    val full = Rect.of2d(0, 7, 0, 7)
    for (bmc <- TestRefs.allBMCs(2, 3))
      assert(LocalCost.sections(full, bmc) == 1, bmc.toString)
  }

  test("a single-cell query is a single section under every BMC") {
    val q = Rect.of2d(5, 5, 2, 2)
    for (bmc <- TestRefs.allBMCs(2, 3))
      assert(LocalCost.sections(q, bmc) == 1, bmc.toString)
  }

  test("a 1×k query aligned with the low-bit dimension is one section") {
    // σ=YYYXXX: x varies fastest; a query spanning all x at fixed y is
    // one continuous run.
    val bmc = TestRefs.fromString("YYYXXX")
    val q = Rect.of2d(0, 7, 4, 4)
    assert(LocalCost.sections(q, bmc) == 1)
  }

  test("sections differ across BMCs for the same query (Figure 4)") {
    val q = Rect.of2d(0, 4, 2, 3)
    val counts = TestRefs.allBMCs(2, 3).map(LocalCost.sections(q, _))
    assert(counts.distinct.size > 1, counts.toString)
  }

  // ---------- naive scan baseline ----------

  test("sectionsByScan equals pattern-based sections for random cases") {
    val rng = new Random(9)
    for (_ <- 1 to 40) {
      val bmc = BMC.random(2, 4, rng)
      val q = randomRect(2, 4, rng)
      assert(LocalCost.sectionsByScan(q, bmc) == LocalCost.sections(q, bmc),
        s"$bmc over ${q.show}")
    }
  }

  test("sectionsByScan works for non-BMC curves (Hilbert)") {
    val hc = new Hilbert(2, 3)
    val q = Rect.of2d(1, 6, 2, 5)
    assert(LocalCost.sectionsByScan(q, hc) == TestRefs.exactSections(q, hc))
  }

  // ---------- pattern tables (Algorithms 1 and 2) ----------

  for (d <- 1 to 4) {
    test(s"pattern tables equal per-query pattern counting (d=$d)") {
      val l = if (d == 4) 2 else 3
      val rng = new Random(d)
      val qs = Array.fill(12)(randomRect(d, l, rng)).toSeq
      val tables = LocalCost.PatternTables(qs, d, l)
      val ref = TestRefs.patternTables(qs, d, Array.fill(d)(l))
      for (b <- 0 until d) assert(java.util.Arrays.equals(tables.tables(b), ref(b)), s"Table^$b")
      for (_ <- 1 to 25) {
        val bmc = BMC.random(d, l, rng)
        val expected = qs.map(LocalCost.edgesViaPatterns(_, bmc)).sum
        assert(tables.edges(bmc) == expected, bmc.toString)
      }
    }
  }

  private def assertTablesMatch(qs: Seq[Rect], bits: Array[Int]): Unit = {
    val tables = new LocalCost.PatternTables(qs, bits.length, bits)
    val ref = TestRefs.patternTables(qs, bits.length, bits)
    for (b <- bits.indices) assert(java.util.Arrays.equals(tables.tables(b), ref(b)), s"Table^$b")
  }

  for (bits <- Seq(Array(4, 4), Array(4, 2, 3))) {
    val shape = bits.mkString("ℓ=(", ",", ")")
    test(s"pattern tables over 2·Block + 37 queries equal the formula ($shape)") {
      val rng = new Random(bits.length)
      assertTablesMatch(Seq.fill(2 * LocalCost.PatternTables.Block + 37)(randomRect(bits, rng)), bits)
    }

    test(s"pattern tables when x's drop columns are zero for a whole block, not the next ($shape)") {
      // A first block of queries one cell wide in x, then wide boxes.
      val rng = new Random(10 + bits.length)
      val thin = Seq.fill(LocalCost.PatternTables.Block) {
        val q = randomRect(bits, rng)
        Rect(q.lo, q.hi.updated(0, q.lo(0)))
      }
      val wide = Seq.fill(LocalCost.PatternTables.Block / 2)(randomRect(bits, rng))
      assertTablesMatch(thin ++ wide, bits)
    }

    test(s"pattern tables of a single query equal the formula ($shape)") {
      val rng = new Random(20 + bits.length)
      for (_ <- 1 to 10) assertTablesMatch(Seq(randomRect(bits, rng)), bits)
    }
  }

  test("pattern-table local cost equals the naive scanned cost (Eq. 10)") {
    val rng = new Random(13)
    val qs = Array.fill(10)(randomRect(2, 4, rng)).toSeq
    val tables = LocalCost.PatternTables(qs, 2, 4)
    for (_ <- 1 to 15) {
      val bmc = BMC.random(2, 4, rng)
      assert(tables.cost(bmc) == LocalCost.naive(qs, bmc), bmc.toString)
    }
  }

  test("total volume is BMC independent and matches the workload") {
    val qs = Seq(Rect.of2d(0, 3, 0, 3), Rect.of2d(2, 5, 1, 2))
    val tables = LocalCost.PatternTables(qs, 2, 3)
    assert(tables.totalVolume == BigInt(16 + 8))
  }

  test("a query volume past Long.MaxValue throws instead of wrapping") {
    val q = Rect.of2d(0, (1L << 62) - 1, 0, 3) // 2⁶² · 4 = 2⁶⁴ cells
    intercept[ArithmeticException](q.volume)
  }

  test("one initialization serves many BMCs (tables are immutable)") {
    val rng = new Random(14)
    val qs = Array.fill(6)(randomRect(2, 3, rng)).toSeq
    val tables = LocalCost.PatternTables(qs, 2, 3)
    val snapshot = tables.tables.map(_.toSeq).toSeq
    for (bmc <- TestRefs.allBMCs(2, 3)) tables.edges(bmc)
    assert(tables.tables.map(_.toSeq).toSeq == snapshot)
  }

  test("tables reject mismatched BMC shapes") {
    val tables = LocalCost.PatternTables(Seq(Rect.of2d(0, 1, 0, 1)), 2, 3)
    intercept[IllegalArgumentException](tables.edges(BMC.zOrder(2, 4)))
    // d disagrees with the length of ℓ: refused at construction.
    for (d <- Seq(1, 3)) {
      val e = intercept[IllegalArgumentException](
        new LocalCost.PatternTables(Seq(Rect.of2d(0, 1, 0, 1)), d, Array(3, 3)))
      assert(e.getMessage.contains(s"d=$d, ℓ=(3,3)"), e.getMessage)
    }
  }

  test("tables reject empty workloads") {
    intercept[IllegalArgumentException](LocalCost.PatternTables(Seq.empty, 2, 3))
  }

  test("tables refuse a workload whose ΣV(q) overflows Long (d=3, ℓ=20)") {
    // Z-order-aligned cubes of side 2^18: V(q) = 2^54, one section each.
    val side = 1L << 18
    val rng = new Random(15)
    val cubes = Seq.fill(1024) {
      val lo = Array.fill(3)(rng.nextInt(4) * side)
      Rect(lo, lo.map(_ + side - 1))
    }
    val e = intercept[IllegalArgumentException](LocalCost.PatternTables(cubes, 3, 20))
    assert(e.getMessage.contains("d=3"), e.getMessage)
    // 511 of them, ΣV = 511·2^54 just below Long.MaxValue, stay exact.
    val tables = LocalCost.PatternTables(cubes.take(511), 3, 20)
    assert(tables.cost(BMC.zOrder(3, 20)) == BigInt(511))
  }

  test("LC = ΣV − E stays exact at ΣV = Long.MaxValue") {
    // Queries of 2^k cells, k = 0…62, at the origin: x spans 2^⌈k/2⌉ and
    // y 2^⌊k/2⌋, so ΣV = 2^63 − 1 and under Z-order each is one section.
    val qs = (0 to 62).map(k => Rect.of2d(0, (1L << ((k + 1) / 2)) - 1, 0, (1L << (k / 2)) - 1))
    val tables = LocalCost.PatternTables(qs, 2, 31)
    assert(tables.totalVolume == Long.MaxValue)
    assert(tables.edges(BMC.zOrder(2, 31)) == Long.MaxValue - 63)
    assert(tables.cost(BMC.zOrder(2, 31)) == BigInt(63))
    val rng = new Random(16)
    for (_ <- 1 to 10) {
      val bmc = BMC.random(2, 31, rng)
      assert(tables.cost(bmc) == qs.map(q => BigInt(LocalCost.sections(q, bmc))).sum, bmc.toString)
    }
  }

  test("tables refuse a d=8, ℓ=7 shape before allocating 1 GiB") {
    val q = Rect(Array.fill(8)(0L), Array.fill(8)(1L))
    val e = intercept[IllegalArgumentException](LocalCost.PatternTables(Seq(q), 8, 7))
    // d · Π(ℓ_m+1) = 8 · 8⁸ cells.
    assert(e.getMessage.contains("d=8") && e.getMessage.contains("134217728 cells"), e.getMessage)
  }

  test("tables refuse a d=64, ℓ=1 shape whose 2⁶⁴ vertices overflow Long") {
    val q = Rect(Array.fill(64)(0L), Array.fill(64)(0L))
    val e = intercept[IllegalArgumentException](LocalCost.PatternTables(Seq(q), 64, 1))
    assert(e.getMessage.contains("d=64"), e.getMessage)
  }

  test("tables refuse a query off the grid instead of aliasing it") {
    // At ℓ=8 the tables would give [-3,2]×[0,0] a negative local cost.
    val e = intercept[IllegalArgumentException](LocalCost.PatternTables(Seq(Rect.of2d(-3, 2, 0, 0)), 2, 8))
    assert(e.getMessage.contains("grid"), e.getMessage)
    intercept[IllegalArgumentException](LocalCost.PatternTables(Seq(Rect.of2d(0, 256, 0, 0)), 2, 8))
    intercept[IllegalArgumentException](new LocalCost.PatternTables(Seq(Rect.of2d(0, 7, 0, 2)), 2, Array(3, 1)))
  }

  test("non-uniform bits per dimension: tables equal per-query counting") {
    val bitsPerDim = Array(3, 1)
    val rng = new Random(15)
    val qs = (1 to 8).map { _ =>
      val x0 = rng.nextInt(8).toLong; val x1 = x0 + rng.nextInt(8 - x0.toInt)
      val y0 = rng.nextInt(2).toLong; val y1 = y0 + rng.nextInt(2 - y0.toInt)
      Rect.of2d(x0, x1, y0, y1)
    }
    val tables = new LocalCost.PatternTables(qs, 2, bitsPerDim)
    val ref = TestRefs.patternTables(qs, 2, bitsPerDim)
    for (b <- 0 until 2) assert(java.util.Arrays.equals(tables.tables(b), ref(b)), s"Table^$b")
    val curves = Seq(BMC(Seq(0, 0, 0, 1), 2), BMC(Seq(1, 0, 0, 0), 2),
                     BMC(Seq(0, 1, 0, 0), 2), BMC(Seq(0, 0, 1, 0), 2))
    for (bmc <- curves) {
      val expected = qs.map(LocalCost.edgesViaPatterns(_, bmc)).sum
      assert(tables.edges(bmc) == expected, bmc.toString)
      assert(tables.edges(bmc) == qs.map(TestRefs.exactEdges(_, bmc)).sum, bmc.toString)
    }
  }

  test("local cost ranks curves consistently with exhaustive sections") {
    // For a y-stretched workload, a curve with y bits low (fast-varying)
    // must give fewer sections than one with y bits high.
    val qs = Seq(Rect.of2d(2, 2, 0, 7), Rect.of2d(5, 5, 0, 7))
    val tables = LocalCost.PatternTables(qs, 2, 3)
    val yFast = TestRefs.fromString("XXXYYY")
    val ySlow = TestRefs.fromString("YYYXXX")
    assert(tables.cost(yFast) < tables.cost(ySlow))
    assert(tables.cost(yFast) == BigInt(qs.map(TestRefs.exactSections(_, yFast)).sum))
  }

  private def randomRect(d: Int, l: Int, rng: Random): Rect = randomRect(Array.fill(d)(l), rng)

  private def randomRect(bits: Array[Int], rng: Random): Rect = {
    val lo = new Array[Long](bits.length)
    val hi = new Array[Long](bits.length)
    var i = 0
    while (i < bits.length) {
      val a = rng.nextInt(1 << bits(i)).toLong
      val b = rng.nextInt(1 << bits(i)).toLong
      lo(i) = math.min(a, b); hi(i) = math.max(a, b)
      i += 1
    }
    Rect(lo, hi)
  }
}
