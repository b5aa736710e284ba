package repro.spark

import java.nio.file.Files
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import repro.SparkSpec
import repro.core._
import scala.jdk.CollectionConverters._

/** Cost-model-chosen Parquet layout and min/max file skipping — the
  * repro-hint scenario: the O(1) estimator picks the SFC used to cluster
  * the table before `DataFrame.write`.
  */
class LayoutSpec extends SparkSpec {

  private val bits = 8

  private def tmpDir(name: String): String =
    Files.createTempDirectory(name).toString

  test("chooseCurve returns the argmin over candidates") {
    val qs = Workloads.squares("UNI", 40, 16, bits, 1).toSeq
    val wc = WorkloadCost(qs, 2, bits)
    val cands = Seq(BMC.zOrder(2, bits), BMC.lexicographic(2, bits, 0),
                    BMC.lexicographic(2, bits, 1))
    val (best, cost) = Layout.chooseCurve(wc, cands)
    assert(cands.forall(c => wc.cost(c) >= cost))
    assert(cost == wc.cost(best))
  }

  test("layout round-trips through Parquet with all rows intact") {
    val df = SpatialData.dataset(spark, "OSM", 4000, 2, bits)
    val path = tmpDir("layout-roundtrip")
    Layout.write(df, BMC.zOrder(2, bits), path, numFiles = 8)
    val back = spark.read.parquet(path)
    assert(back.count() == 4000)
    assert(back.columns.toSet == Set("x", "y", "xq", "yq"))
  }

  test("files are clustered: per-file curve ranges are disjoint-ish") {
    val df = SpatialData.dataset(spark, "UNI", 4000, 3, bits)
    val curve = BMC.zOrder(2, bits)
    val path = tmpDir("layout-cluster")
    Layout.write(df, curve, path, numFiles = 8)
    val stats = Layout.fileStats(spark, path).collect()
    assert(stats.length >= 2, "expected multiple output files")
    // Each file's bounding box must not cover the whole grid (clustering
    // happened); with range partitioning on the curve value, the average
    // bbox area is far below the full grid.
    val k = (1L << bits).toDouble
    val avgArea = stats.map { r =>
      (r.getLong(2) - r.getLong(1) + 1).toDouble * (r.getLong(4) - r.getLong(3) + 1)
    }.sum / stats.length
    assert(avgArea < k * k * 0.6, s"avg bbox area $avgArea of ${k * k}")
  }

  test("cost-model-chosen layout skips more files than the adversarial layout") {
    // Wide flat queries: x-extent 64, y-extent 4. The cost model should
    // choose a curve that keeps rows of equal y together, pruning files.
    val dist = "UNI"
    val df = SpatialData.dataset(spark, dist, 6000, 4, bits)
    val qs = Workloads.rectangles(dist, 60, 64, 4, bits, 5)
    val wc = WorkloadCost(qs.toSeq, 2, bits)
    val cands = (Seq(BMC.zOrder(2, bits), BMC.lexicographic(2, bits, 0),
                     BMC.lexicographic(2, bits, 1)) ++
      repro.learn.Quilts.candidates(qs.toSeq, 2, bits)).distinct
    val (best, _) = Layout.chooseCurve(wc, cands)
    val worst = cands.maxBy(wc.cost)

    val bestPath = tmpDir("layout-best")
    val worstPath = tmpDir("layout-worst")
    Layout.write(df, best, bestPath, numFiles = 16)
    Layout.write(df, worst, worstPath, numFiles = 16)
    val bestTouched = Layout.avgFilesTouched(spark, bestPath, qs)
    val worstTouched = Layout.avgFilesTouched(spark, worstPath, qs)
    assert(bestTouched <= worstTouched,
      s"chosen layout touches $bestTouched files vs $worstTouched")
  }

  test("avgFilesTouched is bounded by the file count and ≥ 1 for nonempty queries") {
    val df = SpatialData.dataset(spark, "NYC", 3000, 6, bits)
    val path = tmpDir("layout-bounds")
    Layout.write(df, new Hilbert(2, bits), path, numFiles = 8)
    val qs = Workloads.squares("NYC", 30, 32, bits, 7)
    val touched = Layout.avgFilesTouched(spark, path, qs)
    val files = Layout.fileStats(spark, path).count()
    // A query that holds a data point overlaps the box of that point's
    // file, so it touches at least one file.
    val points = df.select("xq", "yq").collect().map(r => Array(r.getLong(0), r.getLong(1)))
    val nonempty = qs.count(q => points.exists(q.contains)).toDouble / qs.length
    assert(nonempty > 0.0, "the workload should hold data points")
    assert(touched >= nonempty && touched <= files.toDouble, s"$touched files per query, $nonempty nonempty")
    assert(Layout.avgFilesTouched(spark, path, Array.empty[Rect]) == 0.0, "empty workload")
  }

  test("avgFilesTouched agrees with the file boxes read from the Parquet footers") {
    val df = SpatialData.dataset(spark, "OSM", 3000, 8, bits)
    val path = tmpDir("layout-footers")
    Layout.write(df, BMC.zOrder(2, bits), path, numFiles = 12)
    // Queries of 96² cells: some files overlap a query, some lie inside one.
    val qs = Workloads.squares("OSM", 40, 96, bits, 9)
    val conf = spark.sparkContext.hadoopConfiguration
    val files = new java.io.File(path).listFiles().filter(_.getName.endsWith(".parquet"))
    // A file's box is the union of its row groups' xq/yq min/max statistics.
    val boxes = files.map { f =>
      val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(f.toURI), conf))
      try {
        val chunks = reader.getFooter.getBlocks.asScala.toSeq.flatMap(_.getColumns.asScala)
        def range(col: String): (Long, Long) = {
          val stats = chunks.filter(_.getPath.toDotString == col).map(_.getStatistics)
          (stats.map(_.genericGetMin.asInstanceOf[java.lang.Long].longValue).min,
           stats.map(_.genericGetMax.asInstanceOf[java.lang.Long].longValue).max)
        }
        val ((x0, x1), (y0, y1)) = (range("xq"), range("yq"))
        (Array(x0, y0), Array(x1, y1))
      } finally reader.close()
    }
    val pairs = qs.map(q => boxes.count { case (lo, hi) => q.relate(lo, hi, 0) != Rect.Disjoint }).sum
    assert(files.length >= 2 && pairs > 0 && pairs < qs.length * files.length,
      s"$pairs of ${qs.length * files.length} (query, file) pairs")
    // avgFilesTouched · n equals the pair count; compared as the same quotient.
    assert(Layout.avgFilesTouched(spark, path, qs) == pairs.toDouble / qs.length)
  }
}
