package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{Rect, SpaceFillingCurve}
import scala.collection.mutable.ArrayBuffer

/** Block accesses of range queries over an SFC-clustered table, measured
  * in Spark — the counterpart of [[repro.core.ClusteredIndex]] (the two
  * are asserted equal in tests).
  *
  * Pipeline: the cell columns alone → `Layout.clustered`, the order
  * `Layout.write` stores, one partition per core → dense global rank → one pass over each sorted partition. The
  * global rank is assigned with `zipWithIndex` on the sorted distributed
  * rows: unlike a `row_number()` window (which funnels every row through
  * one partition) it keeps the range-partitioned sort, so the pipeline
  * scales with the data.
  *
  * The pass tests each point, in block `rank / B`, against every query,
  * and emits a (query, block) pair only when that block differs from the
  * last one it emitted for that query in this partition. Ranks ascend
  * within a partition and from one partition to the next, so a block is
  * repeated only where it straddles a partition boundary; the driver drops
  * those repeats while it counts. At most Σ_q blocks(q) + (p − 1)·|Q|
  * pairs reach the driver, for p partitions.
  */
object BlockAccess {

  /** Per-query block-access counts: the distinct blocks holding at least
    * one point inside the query (bounds inclusive).
    *
    * @param points  DataFrame with quantized cell columns `xq`, `yq`
    * @param curve   the SFC ordering the table
    * @param blockSize points per block (B), at least 1
    * @param queries the workload
    * @return one count per query, in query order; 0 for a query matching
    *         no point. An empty workload starts no Spark job.
    */
  def perQuery(spark: SparkSession, points: DataFrame, curve: SpaceFillingCurve,
               blockSize: Int, queries: Array[Rect]): Array[Long] = {
    require(blockSize >= 1, "blockSize must be ≥ 1")
    require(queries.forall(_.d == 2), "2-D queries expected")
    val counts = new Array[Long](queries.length)
    if (queries.isEmpty) return counts
    import spark.implicits._
    val cells = Layout.CellColumns.map(col)
    val sorted = Layout.clustered(points.select(cells: _*), curve, spark.sparkContext.defaultParallelism)
      .select(cells.map(_.cast("long")): _*)
      .as[(Long, Long)]
    val (x0, x1) = (queries.map(_.lo(0)), queries.map(_.hi(0)))
    val (y0, y1) = (queries.map(_.lo(1)), queries.map(_.hi(1)))
    val b = blockSize.toLong
    val pairs = sorted.rdd.zipWithIndex().mapPartitions { rows =>
      val last = Array.fill(x0.length)(-1L)
      val out = ArrayBuffer.empty[(Int, Long)]
      for (((x, y), rank) <- rows) {
        val block = rank / b
        var q = 0
        while (q < x0.length) {
          if (last(q) != block && x >= x0(q) && x <= x1(q) && y >= y0(q) && y <= y1(q)) {
            last(q) = block
            out += ((q, block))
          }
          q += 1
        }
      }
      out.iterator
    }.collect()
    // Each query's blocks arrive in ascending order, so a repeat follows
    // its first copy directly.
    val last = Array.fill(queries.length)(-1L)
    for ((q, block) <- pairs if last(q) != block) {
      last(q) = block
      counts(q) += 1
    }
    counts
  }

  /** Mean block accesses over the workload (queries matching no point
    * count zero accesses, and an empty workload averages 0, as in the
    * driver-side simulator).
    */
  def average(spark: SparkSession, points: DataFrame, curve: SpaceFillingCurve,
              blockSize: Int, queries: Array[Rect]): Double = {
    val counts = perQuery(spark, points, curve, blockSize, queries)
    if (counts.isEmpty) 0.0 else counts.sum.toDouble / counts.length
  }
}
