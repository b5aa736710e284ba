package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._

/** The curve as a registered Spark SQL function + more oracle checks. */
class SqlCurveSpec extends SparkSpec {

  private val bits = 8

  /** Register `name(xq, yq)` as a SQL function computing the value of the
    * 2-D `curve`, so SQL statements (e.g. `ORDER BY name(xq, yq)`) can use it.
    */
  private def registerSql(name: String, curve: SpaceFillingCurve): Unit =
    spark.udf.register(name, (x: Long, y: Long) => curve.value(Array(x, y)))

  test("registered SQL function computes curve values") {
    val curve = BMC.zOrder(2, bits)
    registerSql("sfc_value", curve)
    val df = SpatialData.dataset(spark, "UNI", 1000, 21, bits)
    df.createOrReplaceTempView("pts_sql")
    val rows = spark.sql("SELECT xq, yq, sfc_value(xq, yq) AS sfc FROM pts_sql").collect()
    rows.foreach { r =>
      assert(r.getLong(2) == curve.value(Array(r.getLong(0), r.getLong(1))))
    }
  }

  test("SQL ORDER BY the curve function equals DataFrame orderBy the UDF") {
    val curve = new Hilbert(2, bits)
    registerSql("hc_value", curve)
    val df = SpatialData.dataset(spark, "OSM", 2000, 22, bits)
    df.createOrReplaceTempView("pts_sql2")
    val viaSql = spark.sql(
      "SELECT xq, yq FROM pts_sql2 ORDER BY hc_value(xq, yq), xq, yq")
      .collect().map(r => (r.getLong(0), r.getLong(1)))
    val viaDf = CurveUdfs.withCurveValue(df, curve)
      .orderBy(col("sfc"), col("xq"), col("yq"))
      .select("xq", "yq").collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(viaSql.toSeq == viaDf.toSeq)
  }

  test("oracle: distinct cell count over a range equals SQL") {
    val df = SpatialData.dataset(spark, "NYC", 4000, 23, bits).select("xq", "yq")
    val got = df.where(col("xq") < 128)
      .agg(countDistinct(col("xq"), col("yq")).as("cells"))
    Oracle.assertEquivalent(
      got,
      "SELECT COUNT(DISTINCT (CAST(xq AS BIGINT), CAST(yq AS BIGINT))) AS cells " +
        "FROM pts WHERE CAST(xq AS BIGINT) < 128",
      "pts" -> df)
  }

  test("oracle: top-occupancy cells equal SQL (group + filter)") {
    val df = SpatialData.dataset(spark, "SKEW", 5000, 24, 6).select("xq", "yq")
    val got = df.groupBy("xq", "yq").agg(count(lit(1)).as("cnt"))
      .where(col("cnt") >= 10)
    Oracle.assertEquivalent(
      got,
      "SELECT xq, yq, COUNT(*) AS cnt FROM pts GROUP BY xq, yq HAVING COUNT(*) >= 10",
      "pts" -> df)
  }

  test("oracle: join of points with block assignment equals SQL") {
    // Assign each point its curve value and join against a small blocks
    // table — the shape of a curve-clustered storage catalog lookup.
    val curve = BMC.lexicographic(2, 4, 0)
    val df = SpatialData.dataset(spark, "UNI", 800, 25, 4).select("xq", "yq")
    val withV = CurveUdfs.withCurveValue(df, curve)
    val blocks = spark.range(0, 16).selectExpr("id AS blk", "id * 16 AS lo", "id * 16 + 15 AS hi")
    val got = withV.join(blocks,
        withV("sfc") >= blocks("lo") && withV("sfc") <= blocks("hi"))
      .groupBy("blk").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(b.blk AS BIGINT) AS blk, COUNT(*) AS cnt FROM pts p JOIN blocks b " +
        "ON CAST(p.sfc AS BIGINT) BETWEEN CAST(b.lo AS BIGINT) AND CAST(b.hi AS BIGINT) " +
        "GROUP BY 1",
      "pts" -> withV, "blocks" -> blocks)
  }
}
