package repro.spark

import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.functions.{input_file_name, max, min}
import repro.SparkSpec
import repro.core._

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
      val (touched, jobs) = jobsStartedBy(Layout.avgFilesTouched(spark, path, qs))
      assert(jobs == 0, s"$jobs jobs started inside avgFilesTouched")
      assert(touched > 0.0)
    }
  }

  test("the written layout stores the rows in the driver's curve order") {
    val (dist, n, seed) = ("OSM", 3000, 17L)
    val df = SpatialData.dataset(spark, dist, n, seed, bits)
    val cells = SpatialGen.quantizeAll(SpatialGen.points(dist, n, seed), bits).map(p => (p(0), p(1)))
    for (curve <- Seq[SpaceFillingCurve](BMC.random(2, bits, new java.util.Random(18)), new Hilbert(2, bits)))
      withTempDir("layout-order") { path =>
        Layout.write(df, curve, path, numFiles = 8)
        val files = parquetFiles(path).sortBy(_.getName)
        assert(files.length >= 2, "expected multiple output files")
        // Each small file is read as one split, so its rows come back in
        // the order they were written.
        val stored = files.flatMap { f =>
          spark.read.parquet(f.getPath).select("xq", "yq").collect().map(r => (r.getLong(0), r.getLong(1)))
        }
        // The curve is a bijection on cells: rows of equal curve value
        // share their cell, so this order is the only one.
        assert(stored == cells.sortBy { case (x, y) => curve.value(Array(x, y)) }.toSeq, curve.toString)
      }
  }

  test("write starts three Spark jobs, two for one file") {
    val df = SpatialData.dataset(spark, "OSM", 3000, 19, bits)
    withTempDir("layout-jobs") { path =>
      // The range bounds' sample, the shuffle and the write; one file
      // needs no bounds, so no sample. The bounds' sample is seeded by the
      // RDD id, so another job before a write would move the files.
      for ((files, jobs) <- Seq(4 -> 3, 1 -> 2)) {
        val (_, started) = jobsStartedBy(Layout.write(df, BMC.zOrder(2, bits), path, files))
        assert(started == jobs, s"$files files")
      }
    }
  }
}
