package repro.perfbench

import java.io.File
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import repro.core._
import repro.learn.{LBMC, LBMCConfig, Quilts}
import repro.spark.{BlockAccess, Layout, SpatialData}
import Calls.{Bits, BlockSize, fixed2d}
import SparkLayout.Laid

/** `spark-layout`: the `LayoutJob` path. OSM-like data as a DataFrame, a
  * curve chosen from LBMC, QUILTS and the fixed candidates, `Layout.write`
  * of the chosen and the adversarial (highest-cost) curve, then
  * `Layout.avgFilesTouched` and `BlockAccess.average` on both.
  */
final class SparkLayout(seed: Long, work: File, scale: Double = 1.0, shared: Option[SparkSession] = None)
    extends Bench {
  private val n = (200000 * scale).toInt
  private val numFiles = 32
  private val cores = math.min(4, Runtime.getRuntime.availableProcessors)
  override val sparkMaster: String = s"local[$cores]"

  private var spark: SparkSession = _
  private val counters = new SparkCounters
  private var df: DataFrame = _
  private var cells: Array[Array[Long]] = _
  private var queries: Array[Rect] = _

  private var wc: WorkloadCost = _
  private var candidates: Seq[BMC] = Nil
  private var laid: Seq[Laid] = Nil

  override def setup(s: Setup): Unit = {
    spark = shared.getOrElse(s.time("SparkSession.start") {
      val session = SparkSession.builder()
        .master(sparkMaster)
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", new File(work, "spark-local").getPath)
        .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
        .getOrCreate()
      session.sparkContext.setLogLevel("ERROR")
      session
    })
    spark.sparkContext.addSparkListener(counters)
    df = s.time("SpatialData.dataset")(SpatialData.dataset(spark, "OSM", n, seed, Bits))
    cells = Calls.cells(s, "OSM", n, seed)
    // As in LayoutJob: queries from seed + 1; the same 200 choose and measure.
    queries = s.time("Workloads.queries")(Workloads.rectangles("OSM", 200, 8192, 1024, Bits, seed + 1))
  }

  override def warmUp(): Unit = {
    val w = new SparkLayout(seed, new File(work, "warm-up"), 0.1, Some(spark))
    w.setup(new Setup)
    w.iteration(new Clock(false), new Metrics)
    w.close()
  }

  override def iteration(c: Clock, m: Metrics): Map[String, String] = {
    val before = if (c.traced) c.untimed(counters.snapshot(spark)) else Map.empty[String, Long]
    val (best, worst) = c.sampledPhase("choose") {
      wc = c.span("WorkloadCost.init")(WorkloadCost(queries.toSeq, 2, Bits))
      val lbmc = c.span("LBMC.learn")(new LBMC(wc, LBMCConfig()).learn(Calls.zc(2)))
      val quilts = c.span("Quilts.candidates")(Quilts.candidates(queries.toSeq, 2, Bits))
      candidates = (fixed2d ++ Seq(lbmc.best) ++ quilts).distinct
      val best = c.span("Layout.chooseCurve")(Layout.chooseCurve(wc, candidates))._1
      m("WorkloadCost.evals") = (lbmc.costTrace.size + 2 + 2 * candidates.size).toDouble
      m("Quilts.candidates") = quilts.size.toDouble
      if (c.traced) Calls.lbmcLayers(m, Seq(lbmc))
      (best, candidates.maxBy(wc.cost))
    }
    val layouts = Seq("chosen" -> best, "adversarial" -> worst).map { case (l, curve) =>
      (l, curve, new File(work, s"layout-$l").getPath)
    }
    c.phase("cluster")(layouts.foreach { case (_, curve, path) =>
      c.span("Layout.write")(Layout.write(df, curve, path, numFiles))
    })
    m("heap_mb") = c.untimed(Jvm.usedHeapMbAfterGc())
    laid = c.phase("eval")(layouts.map { case (l, curve, path) =>
      val files = c.span("Layout.avgFilesTouched")(Layout.avgFilesTouched(spark, path, queries))
      val blocks = c.span("BlockAccess.average")(BlockAccess.average(spark, df, curve, BlockSize, queries))
      Laid(l, curve, path, files, blocks)
    })
    val chosen = laid.head
    m("chosen_files_touched") = chosen.files
    m("chosen_block_accesses") = chosen.blocks
    if (c.traced) {
      val layers = c.layers
      m("Layout.write_ms") = Stats.ms(layers("Layout.write").totalNs)
      m("Layout.files_touched_ms") = Stats.ms(layers("Layout.avgFilesTouched").totalNs)
      m("BlockAccess.average_ms") = Stats.ms(layers("BlockAccess.average").totalNs)
      val parts = partFiles(chosen.path)
      m("Layout.files") = parts.length.toDouble
      m("Layout.parquet_bytes") = parts.map(_.length).sum.toDouble
      val after = c.untimed(counters.snapshot(spark))
      after.foreach { case (k, v) => m(s"spark.$k") = (v - before(k)).toDouble }
    }
    laid.flatMap { l =>
      Seq(s"${l.label} curve" -> l.curve.toString,
          s"${l.label} files_touched" -> math.round(l.files * queries.length).toString,
          s"${l.label} block_accesses" -> math.round(l.blocks * queries.length).toString)
    }.toMap
  }

  /** `repartitionByRange` seeds its boundary sample with the RDD id, which
    * grows with every job of the session, so the file boundaries, and with
    * them the files a query touches, differ between iterations of one run.
    * A fresh process repeats them.
    */
  override def sessionDependent: Set[String] = Set("chosen files_touched", "adversarial files_touched")

  private def partFiles(path: String): Array[File] =
    Option(new File(path).listFiles).getOrElse(Array.empty[File])
      .filter(f => f.getName.startsWith("part-") && f.getName.endsWith(".parquet"))

  override def check(g: Gate): Unit = {
    Checks.costModel(g, "spark-layout", wc, (laid.map(_.curve) ++ Checks.sample(candidates, 2, seed)).distinct)
    laid.foreach { l =>
      g.equal(s"spark-layout ${l.label}: Parquet rows = N")(spark.read.parquet(l.path).count(), n.toLong)
      g.equal(s"spark-layout ${l.label}: BlockAccess.average = ClusteredIndex.avgBlockAccesses")(
        l.blocks, ClusteredIndex.build(cells, l.curve, BlockSize).avgBlockAccesses(queries.toSeq))
    }
  }

  override def probe(m: Metrics): Unit = Checks.costProbe(m, queries.toSeq, 2, candidates)

  override def close(): Unit = {
    if (spark != null) spark.sparkContext.removeSparkListener(counters)
    if (shared.isEmpty && spark != null) spark.stop()
  }
}

object SparkLayout {
  /** One written layout and what the queries cost on it. */
  final case class Laid(label: String, curve: BMC, path: String, files: Double, blocks: Double)
}

/** Totals of the Spark work the benchmark caused, from a registered listener. */
final class SparkCounters extends SparkListener {
  private val c = Seq("stages", "tasks", "shuffle_write_bytes", "shuffle_read_bytes", "records_read",
    "executor_run_ms", "executor_gc_ms").map(_ -> new AtomicLong).toMap

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = c("stages").incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    c("tasks").incrementAndGet()
    val t = e.taskMetrics
    if (t != null) {
      c("shuffle_write_bytes").addAndGet(t.shuffleWriteMetrics.bytesWritten)
      c("shuffle_read_bytes").addAndGet(t.shuffleReadMetrics.totalBytesRead)
      c("records_read").addAndGet(t.inputMetrics.recordsRead)
      c("executor_run_ms").addAndGet(t.executorRunTime)
      c("executor_gc_ms").addAndGet(t.jvmGCTime)
    }
  }

  /** Current totals, once the listener has seen every event posted so far. */
  def snapshot(spark: SparkSession): Map[String, Long] = {
    org.apache.spark.PerfbenchAccess.drainListeners(spark.sparkContext)
    c.map { case (k, v) => k -> v.get }
  }
}
