package repro.spark

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions.{input_file_name, max, min}
import repro.SparkSpec
import repro.core._
import scala.jdk.CollectionConverters._

/** Cost-model-chosen Parquet layout and min/max file skipping — the
  * repro-hint scenario: the O(1) estimator picks the SFC used to cluster
  * the table before `DataFrame.write`.
  */
class LayoutSpec extends SparkSpec {

  private val bits = 8

  /** Per-file min/max boxes of the layout at `path` by a full scan of its
    * rows, in file-name order: the reference for `Layout.fileZones`.
    */
  private def scannedBoxes(path: String): Seq[Rect] = {
    import spark.implicits._
    spark.read.parquet(path)
      .select(input_file_name() as "file", $"xq", $"yq")
      .groupBy("file")
      .agg(min("xq"), max("xq"), min("yq"), max("yq"))
      .collect().toSeq
      .sortBy(r => new Path(r.getString(0)).getName)
      .map(r => Rect(Array(r.getLong(1), r.getLong(3)), Array(r.getLong(2), r.getLong(4))))
  }

  /** Whether zone `z`'s box is exactly `box`: `box` holds it, and no box
    * one cell smaller on any side does.
    */
  private def sameBox(zones: ZoneMap, z: Int, box: Rect): Boolean =
    zones.relate(box, z) == ZoneMap.Inside && (0 until box.d).forall { i =>
      box.lo(i) == box.hi(i) || {
        val up = box.lo.clone(); up(i) += 1
        val down = box.hi.clone(); down(i) -= 1
        zones.relate(Rect(up, box.hi), z) != ZoneMap.Inside && zones.relate(Rect(box.lo, down), z) != ZoneMap.Inside
      }
    }

  private def parquetFiles(path: String): Seq[java.io.File] =
    new java.io.File(path).listFiles().toSeq.filter(_.getName.endsWith(".parquet"))

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
    withTempDir("layout-roundtrip") { path =>
      Layout.write(df, BMC.zOrder(2, bits), path, numFiles = 8)
      val back = spark.read.parquet(path)
      assert(back.count() == 4000)
      assert(back.columns.toSet == Set("x", "y", "xq", "yq"))
    }
  }

  test("files are clustered: per-file curve ranges are disjoint-ish") {
    val df = SpatialData.dataset(spark, "UNI", 4000, 3, bits)
    val curve = BMC.zOrder(2, bits)
    withTempDir("layout-cluster") { path =>
      Layout.write(df, curve, path, numFiles = 8)
      val boxes = scannedBoxes(path)
      assert(boxes.length >= 2, "expected multiple output files")
      // Each file's bounding box must not cover the whole grid (clustering
      // happened); with range partitioning on the curve value, the average
      // bbox area is far below the full grid.
      val k = (1L << bits).toDouble
      val avgArea = boxes.map(_.volume.toDouble).sum / boxes.length
      assert(avgArea < k * k * 0.6, s"avg bbox area $avgArea of ${k * k}")
    }
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

    withTempDir("layout-best") { bestPath =>
      withTempDir("layout-worst") { worstPath =>
        Layout.write(df, best, bestPath, numFiles = 16)
        Layout.write(df, worst, worstPath, numFiles = 16)
        val bestTouched = Layout.avgFilesTouched(spark, bestPath, qs)
        val worstTouched = Layout.avgFilesTouched(spark, worstPath, qs)
        assert(bestTouched <= worstTouched,
          s"chosen layout touches $bestTouched files vs $worstTouched")
      }
    }
  }

  test("avgFilesTouched is bounded by the file count and ≥ 1 for nonempty queries") {
    val df = SpatialData.dataset(spark, "NYC", 3000, 6, bits)
    withTempDir("layout-bounds") { path =>
      Layout.write(df, new Hilbert(2, bits), path, numFiles = 8)
      val qs = Workloads.squares("NYC", 30, 32, bits, 7)
      val touched = Layout.avgFilesTouched(spark, path, qs)
      val files = Layout.fileZones(spark, path).size
      // A query that holds a data point overlaps the box of that point's
      // file, so it touches at least one file.
      val points = df.select("xq", "yq").collect().map(r => Array(r.getLong(0), r.getLong(1)))
      val nonempty = qs.count(q => points.exists(q.contains)).toDouble / qs.length
      assert(nonempty > 0.0, "the workload should hold data points")
      assert(touched >= nonempty && touched <= files.toDouble, s"$touched files per query, $nonempty nonempty")
      assert(Layout.avgFilesTouched(spark, path, Array.empty[Rect]) == 0.0, "empty workload")
    }
  }

  test("fileZones gives the per-file min/max box that the full scan gives") {
    val df = SpatialData.dataset(spark, "OSM", 3000, 8, bits)
    withTempDir("layout-footers") { path =>
      Layout.write(df, BMC.zOrder(2, bits), path, numFiles = 12)
      val zones = Layout.fileZones(spark, path)
      val boxes = scannedBoxes(path)
      assert(boxes.length >= 2 && zones.size == boxes.length, s"${zones.size} zones, ${boxes.length} files")
      assert(boxes.indices.forall(z => sameBox(zones, z, boxes(z))))
      // Queries of 96² cells: some files overlap a query, some lie inside one.
      val qs = Workloads.squares("OSM", 40, 96, bits, 9)
      val pairs = qs.map(q => boxes.count(b => (0 until 2).forall(i => b.lo(i) <= q.hi(i) && b.hi(i) >= q.lo(i)))).sum
      assert(pairs > 0 && pairs < qs.length * boxes.length, s"$pairs of ${qs.length * boxes.length} (query, file) pairs")
      // avgFilesTouched · n equals the pair count; compared as the same quotient.
      assert(Layout.avgFilesTouched(spark, path, qs) == pairs.toDouble / qs.length)
    }
  }

  test("a file's zone is the union of its row groups") {
    val df = SpatialData.dataset(spark, "UNI", 3000, 10, bits)
    withTempDir("layout-rowgroups") { path =>
      // One file sorted on xq, cut into small row groups: each covers a
      // slice of the file's x range.
      df.repartition(1).sortWithinPartitions("xq")
        .write.option("parquet.block.size", 4096).mode("overwrite").parquet(path)
      val Seq(file) = parquetFiles(path)
      val conf = spark.sparkContext.hadoopConfiguration
      val reader = ParquetFileReader.open(HadoopInputFile.fromPath(new Path(file.toURI), conf))
      val rowGroups = try reader.getFooter.getBlocks.size finally reader.close()
      assert(rowGroups >= 2, s"$rowGroups row groups")
      val zones = Layout.fileZones(spark, path)
      assert(zones.size == 1 && sameBox(zones, 0, scannedBoxes(path).head))
    }
  }

  test("an empty layout has no file zones and touches no files") {
    val df = SpatialData.dataset(spark, "UNI", 100, 11, bits).limit(0)
    withTempDir("layout-empty") { path =>
      Layout.write(df, BMC.zOrder(2, bits), path, numFiles = 4)
      assert(parquetFiles(path).nonEmpty, "Spark writes a part file with no row group")
      assert(Layout.fileZones(spark, path).size == 0 && scannedBoxes(path).isEmpty)
      assert(Layout.avgFilesTouched(spark, path, Workloads.squares("UNI", 10, 32, bits, 12)) == 0.0)
    }
  }

  test("a layout written without column statistics is refused, naming the file") {
    val df = SpatialData.dataset(spark, "UNI", 1000, 13, bits)
    withTempDir("layout-nostats") { path =>
      df.repartition(2).write.option("parquet.column.statistics.enabled", "false").mode("overwrite").parquet(path)
      val e = intercept[IllegalArgumentException](
        Layout.avgFilesTouched(spark, path, Workloads.squares("UNI", 10, 32, bits, 14)))
      assert(parquetFiles(path).exists(f => e.getMessage.contains(f.getName)), e.getMessage)
    }
  }

  test("avgFilesTouched starts no Spark job") {
    val df = SpatialData.dataset(spark, "OSM", 2000, 15, bits)
    withTempDir("layout-nojob") { path =>
      Layout.write(df, BMC.zOrder(2, bits), path, numFiles = 4)
      val qs = Workloads.squares("OSM", 20, 64, bits, 16)
      val sc = spark.sparkContext
      val starts = new ConcurrentLinkedQueue[String]
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit =
          starts.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
      }
      // Marker jobs before and after the call: the listener bus delivers
      // events in order, so once it has delivered "after" it has delivered
      // every job the call started.
      def marker(name: String): Unit = {
        sc.setJobDescription(name)
        try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      }
      sc.addSparkListener(listener)
      try {
        marker("before")
        val touched = Layout.avgFilesTouched(spark, path, qs)
        marker("after")
        val deadline = System.nanoTime + 30L * 1000 * 1000 * 1000
        while (!starts.contains("after") && System.nanoTime < deadline) Thread.sleep(10)
        val seen = starts.asScala.toSeq
        assert(seen.contains("before") && seen.contains("after"), seen)
        val inside = seen.slice(seen.indexOf("before") + 1, seen.indexOf("after"))
        assert(inside.isEmpty, s"${inside.size} jobs started inside avgFilesTouched")
        assert(touched > 0.0)
      } finally sc.removeSparkListener(listener)
    }
  }
}
