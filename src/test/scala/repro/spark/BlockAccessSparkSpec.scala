package repro.spark

import repro.SparkSpec
import repro.core._

/** Spark block-access pipeline vs the driver-side simulator. */
class BlockAccessSparkSpec extends SparkSpec {

  private val bits = 8

  for (dist <- Seq("UNI", "OSM")) {
    test(s"Spark pipeline equals the driver-side ClusteredIndex ($dist)") {
      val n = 5000
      val seed = 11L
      val pts = SpatialGen.quantizeAll(SpatialGen.points(dist, n, seed), bits)
      val df = SpatialData.dataset(spark, dist, n, seed, bits)
      val cells = pts.map(p => (p(0), p(1)))
      assert(cells.distinct.length < n, "expected points sharing a cell")
      // Bounds equal to point coordinates: single cells and boxes whose
      // corners come from two points.
      val onPoints = (0 until 10).map { i =>
        val ((x0, y0), (x1, y1)) = (cells(i), cells(if (i < 5) i else i + 100))
        Rect.of2d(math.min(x0, x1), math.max(x0, x1), math.min(y0, y1), math.max(y0, y1))
      }
      val k = 1L << bits
      val occupied = cells.toSet
      val (ex, ey) = (for (x <- 0L until k; y <- 0L until k) yield (x, y)).find(!occupied(_)).get
      val queries = Workloads.squares(dist, 25, 24, bits, seed + 1) ++ onPoints :+ Rect.of2d(ex, ex, ey, ey)
      val curve = BMC.zOrder(2, bits)

      // B = 1 puts points sharing a cell into different blocks.
      for (b <- Seq(64, 1)) {
        val driver = ClusteredIndex.build(pts, curve, b)
        val sparkRows = BlockAccess.perQuery(spark, df, curve, b, queries)
          .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
        queries.zipWithIndex.foreach { case (q, i) =>
          assert(sparkRows.getOrElse(i, 0L) == driver.blockAccesses(q),
            s"B=$b query $i ${q.show}")
        }
        assert(!sparkRows.contains(queries.length - 1), "a query matching no point has no row")
        val sparkAvg = BlockAccess.average(spark, df, curve, b, queries)
        assert(math.abs(sparkAvg - driver.avgBlockAccesses(queries.toSeq)) < 1e-9, s"B=$b")
      }
    }
  }

  test("average matches the driver-side average") {
    val n = 3000
    val pts = SpatialGen.quantizeAll(SpatialGen.points("SKEW", n, 5), bits)
    val df = SpatialData.dataset(spark, "SKEW", n, 5, bits)
    val curve = new Hilbert(2, bits)
    val b = 32
    val index = ClusteredIndex.build(pts, curve, b)
    // The empty workload averages 0 on both sides.
    for (queries <- Seq(Workloads.squares("SKEW", 20, 16, bits, 6), Array.empty[Rect])) {
      val driverAvg = index.avgBlockAccesses(queries.toSeq)
      val sparkAvg = BlockAccess.average(spark, df, curve, b, queries)
      assert(math.abs(driverAvg - sparkAvg) < 1e-9, s"${queries.length} queries")
    }
  }

  test("better curves yield fewer block accesses in the Spark pipeline too") {
    val n = 4000
    val df = SpatialData.dataset(spark, "UNI", n, 7, bits)
    // Full-height column queries: x-major lex order is pathological.
    val queries = (0 until 10).map { i =>
      Rect.of2d(i * 20, i * 20 + 3, 0, (1L << bits) - 1)
    }.toArray
    val good = BMC.lexicographic(2, bits, 0) // x major: columns contiguous
    val bad = BMC.lexicographic(2, bits, 1)  // y major: columns scattered
    val g = BlockAccess.average(spark, df, good, 64, queries)
    val b = BlockAccess.average(spark, df, bad, 64, queries)
    assert(g < b, s"good=$g bad=$b")
  }
}
