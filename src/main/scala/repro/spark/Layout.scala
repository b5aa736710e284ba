package repro.spark

import org.apache.hadoop.fs.Path
import org.apache.parquet.HadoopReadOptions
import org.apache.parquet.column.statistics.LongStatistics
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.core.{BMC, Rect, SpaceFillingCurve, WorkloadCost, ZoneMap}
import scala.jdk.CollectionConverters._

/** SFC-driven Parquet layout: the paper's cost model applied where a
  * Spark user would apply it — choosing the space-filling curve that
  * clusters a table before `DataFrame.write` (the repro hint's target).
  *
  * `chooseCurve` evaluates every candidate BMC against the expected query
  * workload in O(1) each (after the single O(n) init); `clustered` is the
  * one place cell columns become curve order, by `repartitionByRange` +
  * `sortWithinPartitions` — the mechanism Delta/Hudi use for Z-ordering —
  * which `write` stores and [[BlockAccess]] ranks; `avgFilesTouched`
  * measures the workload's file skipping by the files' min/max boxes,
  * read from the Parquet footers.
  */
object Layout {

  /** The cell columns a curve orders, one dimension each, and the curve-value column. */
  private[spark] val CellColumns = Seq("xq", "yq")
  private val CurveColumn = "sfc"

  /** Pick the minimum-cost curve for the workload among `candidates`. */
  def chooseCurve(cost: WorkloadCost, candidates: Seq[BMC]): (BMC, BigInt) = {
    require(candidates.nonEmpty, "no candidate curves")
    candidates.map(c => (c, cost.cost(c))).minBy(_._2)
  }

  /** Append the curve-value column `sfc` of a 2-D curve, computed by a UDF
    * from the `xq`/`yq` cell columns; refuses a curve of another d.
    */
  def withCurveValue(df: DataFrame, curve: SpaceFillingCurve): DataFrame = {
    require(curve.d == CellColumns.size, s"curve is ${curve.d}-dimensional, expected ${CellColumns.size}")
    val value = udf((x: Long, y: Long) => curve.value(Array(x, y)))
    df.withColumn(CurveColumn, value(CellColumns.map(df(_)): _*))
  }

  /** `df` with its curve value, range-partitioned on it into `partitions`
    * and sorted within each: the partitions, read in order, are in curve order.
    */
  private[spark] def clustered(df: DataFrame, curve: SpaceFillingCurve, partitions: Int): DataFrame =
    withCurveValue(df, curve)
      .repartitionByRange(partitions, col(CurveColumn))
      .sortWithinPartitions(CurveColumn)

  /** Write `df` to Parquet clustered by `curve` over its `xq`/`yq` cell
    * columns, producing `numFiles` roughly equal files. Their boundaries
    * come from `repartitionByRange`'s sample, which Spark seeds with the RDD
    * id, so they move with the jobs the session ran before the write
    * (boundaries taken from the data are ROADMAP item 7).
    */
  def write(df: DataFrame, curve: SpaceFillingCurve, path: String, numFiles: Int): Unit =
    clustered(df, curve, numFiles).drop(CurveColumn).write.mode("overwrite").parquet(path)

  /** The Parquet footers' min/max boxes of the layout at `path`, as a
    * footer-based pruner sees them: one zone per `.parquet` file that
    * holds a row group, in file-name order, covering the `xq`/`yq`
    * statistics of all its row groups. Refuses a file whose row group has
    * no such statistics. Reads footers only; starts no Spark job.
    */
  def fileZones(spark: SparkSession, path: String): ZoneMap = {
    val conf = spark.sparkContext.hadoopConfiguration
    val dir = new Path(path)
    val files = dir.getFileSystem(conf).listStatus(dir)
      .filter(_.getPath.getName.endsWith(".parquet")).sortBy(_.getPath.getName)
    // One set of read options for every file: building it from the
    // configuration costs more than reading a footer.
    val options = HadoopReadOptions.builder(conf).build()
    val footers = files.toSeq.map { f =>
      val reader = ParquetFileReader.open(HadoopInputFile.fromStatus(f, conf), options)
      try (f.getPath, reader.getFooter.getBlocks.asScala.toSeq) finally reader.close()
    }.filter(_._2.nonEmpty)
    val zones = ZoneMap.builder(footers.size, CellColumns.size)
    for (((file, rowGroups), z) <- footers.zipWithIndex; rg <- rowGroups; (col, dim) <- CellColumns.zipWithIndex) {
      rg.getColumns.asScala.find(_.getPath.toDotString == col).map(_.getStatistics) match {
        case Some(s: LongStatistics) if s.hasNonNullValue => zones.include(z, dim, s.getMin, s.getMax)
        case _ => throw new IllegalArgumentException(s"$file: a row group has no min/max statistics for $col")
      }
    }
    zones.result()
  }

  /** Mean number of files a min/max pruner must read per query (0 for an
    * empty workload), from the footers' [[fileZones]].
    */
  def avgFilesTouched(spark: SparkSession, path: String, queries: Array[Rect]): Double =
    if (queries.isEmpty) 0.0
    else {
      val zones = fileZones(spark, path)
      queries.map(q => zones.touched(q).toLong).sum.toDouble / queries.length
    }
}
