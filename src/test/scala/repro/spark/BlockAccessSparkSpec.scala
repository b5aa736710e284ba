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
        val counts = BlockAccess.perQuery(spark, df, curve, b, queries)
        assert(counts.length == queries.length)
        queries.zipWithIndex.foreach { case (q, i) =>
          assert(counts(i) == driver.blockAccesses(q), s"B=$b query $i ${q.show}")
        }
        assert(counts.last == 0L, "a query matching no point counts 0")
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

  test("one block spanning every partition counts once per query holding a point") {
    val n = 2000
    val pts = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, 3), bits)
    val df = SpatialData.dataset(spark, "OSM", n, 3, bits)
    val queries = Workloads.squares("OSM", 30, 32, bits, 4) :+ Rect.of2d(0, (1L << bits) - 1, 0, (1L << bits) - 1)
    val curve = BMC.zOrder(2, bits)
    for (b <- Seq(n, n + 1)) {
      val counts = BlockAccess.perQuery(spark, df, curve, b, queries)
      val expected = queries.map(q => if (pts.exists(q.contains)) 1L else 0L)
      assert(counts.toSeq == expected.toSeq, s"B=$b")
      assert(counts.last == 1L, s"B=$b: the full grid holds every point")
    }
  }

  test("an empty table counts 0 blocks per query, as the driver does") {
    val pts = SpatialGen.quantizeAll(SpatialGen.points("UNI", 0, 9), bits)
    val df = SpatialData.dataset(spark, "UNI", 0, 9, bits)
    val queries = Workloads.squares("UNI", 10, 32, bits, 10)
    val curve = BMC.zOrder(2, bits)
    val driver = ClusteredIndex.build(pts, curve, 64)
    val counts = BlockAccess.perQuery(spark, df, curve, 64, queries)
    assert(counts.toSeq == queries.map(driver.blockAccesses).toSeq)
    assert(counts.forall(_ == 0L))
  }

  test("perQuery starts four Spark jobs, two on one partition, none for no query") {
    val df = SpatialData.dataset(spark, "OSM", 3000, 17, bits)
    val queries = Workloads.squares("OSM", 20, 64, bits, 18)
    val curve = BMC.zOrder(2, bits)
    // The range bounds' sample, the shuffle, zipWithIndex's partition
    // sizes and the collect; one partition needs neither the sample nor
    // the sizes. An empty workload starts none.
    val expected = if (spark.sparkContext.defaultParallelism > 1) 4 else 2
    assert(jobsStartedBy(BlockAccess.perQuery(spark, df, curve, 64, queries))._2 == expected)
    assert(jobsStartedBy(BlockAccess.perQuery(spark, df, curve, 64, Array.empty[Rect]))._2 == 0)
  }

  test("block sizes below 1 are refused on the driver") {
    val df = SpatialData.dataset(spark, "UNI", 100, 1, bits)
    val queries = Workloads.squares("UNI", 3, 16, bits, 2)
    // Refused on the driver: inside a task, B = 0 would surface as a
    // SparkException wrapping an ArithmeticException.
    for (b <- Seq(0, -1); qs <- Seq(queries, Array.empty[Rect])) {
      val e = intercept[IllegalArgumentException](BlockAccess.average(spark, df, BMC.zOrder(2, bits), b, qs))
      assert(e.getMessage.contains("blockSize must be ≥ 1"), e.getMessage)
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
