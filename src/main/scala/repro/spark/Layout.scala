package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{BMC, Rect, SpaceFillingCurve, WorkloadCost}

/** SFC-driven Parquet layout: the paper's cost model applied where a
  * Spark user would apply it — choosing the space-filling curve that
  * clusters a table before `DataFrame.write` (the repro hint's target).
  *
  * `chooseCurve` evaluates every candidate BMC against the expected query
  * workload in O(1) each (after the single O(n) init); `write` orders the
  * rows by the winning curve with `repartitionByRange` +
  * `sortWithinPartitions` — the same mechanism Delta/Hudi use for
  * Z-ordering — and `avgFilesTouched` measures min/max-based file skipping
  * for the workload.
  */
object Layout {

  /** Pick the minimum-cost curve for the workload among `candidates`. */
  def chooseCurve(cost: WorkloadCost, candidates: Seq[BMC]): (BMC, BigInt) = {
    require(candidates.nonEmpty, "no candidate curves")
    candidates.map(c => (c, cost.cost(c))).minBy(_._2)
  }

  /** Write `df` to Parquet clustered by `curve` over its `xq`/`yq` cell
    * columns, producing `numFiles` roughly equal files.
    */
  def write(df: DataFrame, curve: SpaceFillingCurve, path: String, numFiles: Int): Unit = {
    val spark = df.sparkSession
    import spark.implicits._
    CurveUdfs.withCurveValue(df, curve)
      .repartitionByRange(numFiles, $"sfc")
      .sortWithinPartitions("sfc")
      .drop("sfc")
      .write.mode("overwrite").parquet(path)
  }

  /** Per-file bounding boxes of the written layout — what a min/max
    * (Parquet footer / Delta stats) pruner sees.
    */
  def fileStats(spark: SparkSession, path: String): DataFrame = {
    import spark.implicits._
    spark.read.parquet(path)
      .select(input_file_name() as "file", $"xq", $"yq")
      .groupBy("file")
      .agg(min("xq") as "minx", max("xq") as "maxx",
           min("yq") as "miny", max("yq") as "maxy")
  }

  /** Mean number of files a min/max pruner must read per query (0 for an
    * empty workload).
    */
  def avgFilesTouched(spark: SparkSession, path: String, queries: Array[Rect]): Double =
    if (queries.isEmpty) 0.0
    else {
      val stats = fileStats(spark, path)
        .select("minx", "maxx", "miny", "maxy")
        .collect()
        .map(r => (Array(r.getLong(0), r.getLong(2)), Array(r.getLong(1), r.getLong(3))))
      val touched = queries.map { q =>
        stats.count { case (min, max) => q.relate(min, max, 0) != Rect.Disjoint }
      }
      touched.sum.toDouble / queries.length
    }
}
