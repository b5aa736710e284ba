package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Rect, SpaceFillingCurve}

/** DataFrame pipeline measuring block accesses of range queries over an
  * SFC-clustered table — the Spark counterpart of
  * [[repro.core.ClusteredIndex]] (the two are asserted equal in tests).
  *
  * Pipeline: curve value per point (UDF) → global sort → dense global rank
  * → block id (`rank / B`) → range join with the workload → per-query
  * distinct-block count. The global rank is assigned with `zipWithIndex`
  * on the sorted distributed rows: unlike a `row_number()` window (which
  * funnels every row through one partition) it preserves Spark's
  * range-partitioned sort, so the pipeline scales with the data.
  */
object BlockAccess {

  /** Per-query block-access counts: the distinct blocks holding at least
    * one point inside the query (bounds inclusive).
    *
    * @param points  DataFrame with quantized cell columns `xq`, `yq`
    * @param curve   the SFC ordering the table
    * @param blockSize points per block (B)
    * @param queries the workload; query id = position in this array
    * @return DataFrame (qid: Int, blocks: Long), one row per query with ≥ 1 access
    */
  def perQuery(spark: SparkSession, points: DataFrame, curve: SpaceFillingCurve,
               blockSize: Int, queries: Array[Rect]): DataFrame = {
    import spark.implicits._
    require(queries.forall(_.d == 2), "2-D queries expected")
    val sorted = CurveUdfs.withCurveValue(points.select("xq", "yq"), curve)
      .orderBy("sfc")
      .select($"xq".cast("long"), $"yq".cast("long"))
      .as[(Long, Long)]
    val ranked = sorted.rdd.zipWithIndex().map { case ((x, y), rank) =>
      (x, y, rank / blockSize)
    }.toDF("xq", "yq", "block")
    // The workload is small (≤ a few thousand rects), so it is broadcast.
    val workload = queries.toSeq.zipWithIndex.map { case (q, i) =>
      (i, q.lo(0), q.hi(0), q.lo(1), q.hi(1))
    }.toDF("qid", "x0", "x1", "y0", "y1")

    ranked.join(broadcast(workload), $"xq".between($"x0", $"x1") && $"yq".between($"y0", $"y1"))
      .groupBy("qid").agg(countDistinct("block") as "blocks")
  }

  /** Mean block accesses over the workload (queries matching no point
    * count zero accesses, and an empty workload averages 0, as in the
    * driver-side simulator).
    */
  def average(spark: SparkSession, points: DataFrame, curve: SpaceFillingCurve,
              blockSize: Int, queries: Array[Rect]): Double =
    if (queries.isEmpty) 0.0
    else {
      val total = perQuery(spark, points, curve, blockSize, queries)
        .agg(coalesce(sum("blocks"), lit(0L))).collect()(0).getLong(0)
      total.toDouble / queries.length
    }
}
