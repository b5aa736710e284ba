package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.SpatialGen

/** Spark-side views of the synthetic spatial datasets.
  *
  * Points are generated by [[repro.core.SpatialGen]] (pure, deterministic)
  * and parallelized, so the driver-side learners and the Spark jobs see
  * *exactly* the same data — a requirement for the Spark/driver
  * cross-checks in the test suites. The cardinalities used in this repo
  * (≤ 10⁶, DESIGN.md § 6) make driver-side generation cheap.
  */
object SpatialData {

  /** A point dataset: raw `[0,1)` coordinates `x`, `y` plus their grid
    * cells `xq`, `yq`, each cell computed by the driver's own
    * [[SpatialGen.quantize]].
    *
    * The points travel as at most `defaultParallelism` contiguous slices,
    * one partition each, every slice a pair of primitive `x`/`y` column
    * arrays; rows come back in generation order. Every Spark job re-reads
    * its source, and a task re-reads a chunk by unpacking two arrays (a
    * `createDataset` local relation would serialize every row into the
    * tasks of each job).
    */
  def dataset(spark: SparkSession, dist: String, n: Int, seed: Long, bits: Int): DataFrame = {
    import spark.implicits._
    val pts = SpatialGen.points(dist, n, seed)
    val slices = math.max(1, math.min(n, spark.sparkContext.defaultParallelism))
    val chunks = Seq.tabulate(slices) { s =>
      val (lo, hi) = ((n.toLong * s / slices).toInt, (n.toLong * (s + 1) / slices).toInt)
      (Array.tabulate(hi - lo)(i => pts(lo + i)(0)), Array.tabulate(hi - lo)(i => pts(lo + i)(1)))
    }
    spark.sparkContext.parallelize(chunks, slices)
      .flatMap { case (xs, ys) =>
        xs.indices.iterator.map(i => (xs(i), ys(i), SpatialGen.quantize(xs(i), bits), SpatialGen.quantize(ys(i), bits)))
      }
      .toDF("x" +: "y" +: Layout.CellColumns: _*)
  }
}
