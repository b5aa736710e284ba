package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the suites that run Spark: one local-mode SparkSession for
  * the whole run.
  *
  * The Spark suites use it for the curve UDFs, the `BlockAccess` pipeline,
  * the Parquet layouts of `Layout` and `LayoutExp`, and the DataFrames the
  * DuckDB oracle checks. Driver heap is set via ``Test / javaOptions`` in
  * build.sbt from SPARK_DRIVER_MEM; SPARK_MASTER overrides the master.
  * Shuffles are 64 partitions wide. Automatic broadcast joins are
  * disabled, so `SqlCurveSpec`'s join runs as a shuffle join;
  * `BlockAccess`'s range join keeps its explicit `broadcast` hint, which
  * the disabled threshold does not override.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
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
