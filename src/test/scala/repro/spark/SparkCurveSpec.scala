package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._

/** Spark curve UDFs + DuckDB-oracle checks of SFC-indexed range queries. */
class SparkCurveSpec extends SparkSpec {

  private val bits = 8

  test("curve UDF values match the driver-side curve") {
    val df = SpatialData.dataset(spark, "UNI", 2000, 1, bits)
    val curve = BMC.zOrder(2, bits)
    val rows = Layout.withCurveValue(df, curve).select("xq", "yq", "sfc").collect()
    assert(rows.length == 2000)
    rows.foreach { r =>
      assert(r.getLong(2) == curve.value(Array(r.getLong(0), r.getLong(1))))
    }
  }

  test("curve UDF works for Hilbert and piecewise curves too") {
    val df = SpatialData.dataset(spark, "OSM", 500, 2, bits)
    for (curve <- Seq[SpaceFillingCurve](new Hilbert(2, bits),
        new PiecewiseBMC(PiecewiseBMC.Tail(BMC.lexicographic(2, bits, 0)), 2, bits))) {
      val rows = Layout.withCurveValue(df, curve).select("xq", "yq", "sfc").collect()
      rows.foreach { r =>
        assert(r.getLong(2) == curve.value(Array(r.getLong(0), r.getLong(1))))
      }
    }
  }

  test("withCurveValue refuses a curve whose d is not the number of cell columns") {
    val df = SpatialData.dataset(spark, "UNI", 10, 1, bits)
    val e = intercept[IllegalArgumentException](Layout.withCurveValue(df, BMC.zOrder(3, bits)))
    assert(e.getMessage.contains("curve is 3-dimensional, expected 2"), e.getMessage)
  }

  test("quantization matches SpatialGen.quantize") {
    val df = SpatialData.dataset(spark, "SKEW", 3000, 3, bits)
    df.select("x", "y", "xq", "yq").collect().foreach { r =>
      assert(r.getLong(2) == SpatialGen.quantize(r.getDouble(0), bits))
      assert(r.getLong(3) == SpatialGen.quantize(r.getDouble(1), bits))
    }
  }

  test("sorting by curve value is a total order (Corollary 1 in Spark)") {
    val df = SpatialData.dataset(spark, "NYC", 2000, 4, bits)
    val curve = BMC.lexicographic(2, bits, 1)
    val sorted = Layout.withCurveValue(df, curve).orderBy("sfc")
      .select("sfc").collect().map(_.getLong(0))
    assert(sorted.zip(sorted.tail).forall { case (a, b) => a <= b })
  }

  // ---------- DuckDB oracle: range query answers through the curve ----------

  for (dist <- Seq("UNI", "OSM")) {
    test(s"oracle: curve-ordered range query returns exactly the SQL answer ($dist)") {
      val df = SpatialData.dataset(spark, dist, 3000, 5, bits).select("xq", "yq")
      val curve = BMC.zOrder(2, bits)
      val q = Workloads.squares(dist, 1, 48, bits, 6).head
      // The SFC query path: restrict to the curve-value span [F(lo), F(hi)]
      // (Corollary 1), then filter exactly — mirrors a B+-tree range scan
      // plus residual filter.
      val loV = curve.value(q.lo)
      val hiV = curve.value(q.hi)
      val viaCurve = Layout.withCurveValue(df, curve)
        .where(col("sfc") >= loV && col("sfc") <= hiV)
        .where(col("xq") >= q.lo(0) && col("xq") <= q.hi(0) &&
               col("yq") >= q.lo(1) && col("yq") <= q.hi(1))
        .select("xq", "yq")
      Oracle.assertEquivalent(
        viaCurve,
        s"SELECT xq, yq FROM pts WHERE CAST(xq AS BIGINT) BETWEEN ${q.lo(0)} AND ${q.hi(0)} " +
          s"AND CAST(yq AS BIGINT) BETWEEN ${q.lo(1)} AND ${q.hi(1)}",
        "pts" -> df)
    }
  }

  test("oracle: per-section scan unions to the exact SQL answer") {
    // Split the query into its query sections (Section 3.2) with a scan
    // over the value span, then fetch each section as a 1-D range — the
    // alternative query algorithm of Section 4. The union must equal the
    // plain SQL answer with no residual filter at all.
    val small = 5
    val df = SpatialData.dataset(spark, "UNI", 1500, 7, small).select("xq", "yq")
    val curve = BMC.zOrder(2, small)
    val q = Rect.of2d(3, 12, 7, 20)
    // Compute sections exactly on the driver.
    val inQ = Rect.cells(q).map(curve.value).toArray.sorted
    val sections = inQ.foldLeft(List.empty[(Long, Long)]) {
      case ((s, e) :: rest, v) if v == e + 1 => (s, v) :: rest
      case (acc, v)                          => (v, v) :: acc
    }.reverse
    assert(sections.size == LocalCost.sections(q, curve))
    val withV = Layout.withCurveValue(df, curve)
    val viaSections = sections
      .map { case (s, e) => withV.where(col("sfc") >= s && col("sfc") <= e) }
      .reduce(_ union _)
      .select("xq", "yq")
    Oracle.assertEquivalent(
      viaSections,
      s"SELECT xq, yq FROM pts WHERE CAST(xq AS BIGINT) BETWEEN ${q.lo(0)} AND ${q.hi(0)} " +
        s"AND CAST(yq AS BIGINT) BETWEEN ${q.lo(1)} AND ${q.hi(1)}",
      "pts" -> df)
  }

  test("oracle: 2-D layout query over cast cell columns equals SQL") {
    // Cell columns derived in Spark, as a table clustered on other numeric
    // columns would get them: 100 cells per unit coordinate, cast to long.
    val cells = SpatialData.dataset(spark, "OSM", 3000, 9, bits).select(
      (col("x") * 100).cast("long").as("xq"), // [0,1) → 0..99 cells
      (col("y") * 100).cast("long").as("yq"))
    val curve = BMC.zOrder(2, 7)
    // The curve-value span of the query first (Corollary 1), then the
    // exact 2-D filter.
    val viaCurve = Layout.withCurveValue(cells, curve)
      .where(col("sfc") >= curve.value(Array(10L, 20L)) && col("sfc") <= curve.value(Array(40L, 80L)))
      .where(col("xq") >= 10 && col("xq") <= 40 && col("yq") >= 20 && col("yq") <= 80)
      .select("xq", "yq")
    assert(viaCurve.count() > 0, "the query must match some points")
    Oracle.assertEquivalent(
      viaCurve,
      "SELECT CAST(xq AS BIGINT) AS xq, CAST(yq AS BIGINT) AS yq FROM cells " +
        "WHERE CAST(xq AS BIGINT) BETWEEN 10 AND 40 AND CAST(yq AS BIGINT) BETWEEN 20 AND 80",
      "cells" -> cells)
  }

  test("oracle: aggregation over a curve-restricted range equals SQL") {
    val df = SpatialData.dataset(spark, "SKEW", 4000, 8, bits).select("xq", "yq")
    val agg = df.where(col("xq") < 64 && col("yq") < 64)
      .groupBy((col("xq") / 16).cast("long").as("gx"))
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      agg,
      "SELECT CAST(xq AS BIGINT) // 16 AS gx, COUNT(*) AS cnt FROM pts " +
        "WHERE CAST(xq AS BIGINT) < 64 AND CAST(yq AS BIGINT) < 64 GROUP BY 1",
      "pts" -> df)
  }
}
