package repro.spark

import repro.SparkSpec
import repro.core.SpatialGen

/** The Spark source table: the driver's points, row for row, in order. */
class SpatialDataSpec extends SparkSpec {

  private val bits = 10

  private def parallelism: Int = spark.sparkContext.defaultParallelism

  test("schema is (x, y: double; xq, yq: long)") {
    val df = SpatialData.dataset(spark, "UNI", 10, 1, bits)
    assert(df.dtypes.toSeq == Seq("x" -> "DoubleType", "y" -> "DoubleType",
      "xq" -> "LongType", "yq" -> "LongType"))
  }

  // n relative to the parallelism p; one partition per slice, at least one.
  for ((dist, label, nOf) <- Seq[(String, String, Int => Int)](
      ("OSM", "n = 0", _ => 0),
      ("UNI", "n = p - 1", p => p - 1),
      ("SKEW", "n = p", p => p),
      ("NYC", "n = 3p + 1", p => 3 * p + 1),
      ("OSM", "n = 5003", _ => 5003))) {
    test(s"$dist, $label: rows equal SpatialGen.points + quantize, in order") {
      val p = parallelism
      val n = nOf(p)
      val df = SpatialData.dataset(spark, dist, n, 13, bits)
      assert(df.rdd.getNumPartitions == math.max(1, math.min(n, p)))
      val rows = df.collect()
      val pts = SpatialGen.points(dist, n, 13)
      assert(rows.length == n)
      rows.zip(pts).foreach { case (r, pt) =>
        assert(r.getDouble(0) == pt(0) && r.getDouble(1) == pt(1))
        assert(r.getLong(2) == SpatialGen.quantize(pt(0), bits))
        assert(r.getLong(3) == SpatialGen.quantize(pt(1), bits))
      }
    }
  }
}
