package repro

import java.nio.file.{Files, Path}
import java.util.Comparator
import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Base for the suites that run Spark: one local-mode SparkSession for
  * the whole run.
  *
  * The Spark suites use it for the curve UDFs, the `BlockAccess` pipeline,
  * the Parquet layouts of `Layout` and `LayoutExp`, and the DataFrames the
  * DuckDB oracle checks. Driver heap is set via ``Test / javaOptions`` in
  * build.sbt from SPARK_DRIVER_MEM; SPARK_MASTER overrides the master.
  * Shuffles are 64 partitions wide. Automatic broadcast joins are
  * disabled, so `SqlCurveSpec`'s join runs as a shuffle join.
  * `BlockAccess` sorts into `defaultParallelism` range partitions, so the
  * master sets how many partition boundaries its count crosses.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Run `body` on a fresh temporary directory, deleted with everything in
    * it when `body` ends.
    */
  def withTempDir[A](prefix: String)(body: String => A): A = {
    val dir = Files.createTempDirectory(prefix)
    try body(dir.toString)
    finally {
      val walk = Files.walk(dir)
      try walk.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
      finally walk.close()
    }
  }

  /** `body`'s result and the number of Spark jobs it starts, seen by a
    * `SparkListener` between marker jobs run before and after it. The
    * listener bus delivers events in order, so once it has delivered
    * "after" it has delivered every job `body` started.
    */
  def jobsStartedBy[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val starts = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        starts.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    def marker(name: String): Unit = {
      sc.setJobDescription(name)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
    }
    sc.addSparkListener(listener)
    try {
      marker("before")
      val result = body
      marker("after")
      val deadline = System.nanoTime + 30L * 1000 * 1000 * 1000
      while (!starts.contains("after") && System.nanoTime < deadline) Thread.sleep(10)
      val seen = starts.asScala.toSeq
      assert(seen.contains("before") && seen.contains("after"), seen)
      (result, seen.indexOf("after") - seen.indexOf("before") - 1)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in the test output records the driver heap, master and
    // parallelism the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
