package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.udf
import repro.core.SpaceFillingCurve

/** Spark UDFs computing SFC values — the glue that lets a curve chosen by
  * the O(1) cost model drive DataFrame ordering and Parquet layout.
  */
object CurveUdfs {

  /** 2-D curve value UDF over quantized cell coordinates. */
  def curveValue2d(curve: SpaceFillingCurve): UserDefinedFunction = {
    require(curve.d == 2, s"curve is ${curve.d}-dimensional, expected 2")
    udf((x: Long, y: Long) => curve.value(Array(x, y)))
  }

  /** Append the curve-value column `sfc` computed from the `xq`/`yq` cell
    * columns.
    */
  def withCurveValue(df: DataFrame, curve: SpaceFillingCurve): DataFrame =
    df.withColumn("sfc", curveValue2d(curve)(df("xq"), df("yq")))

  /** Register `name(xq, yq)` as a SQL function computing the curve value,
    * so Spark SQL statements (e.g. `ORDER BY sfc_value(xq, yq)` or a
    * `CREATE TABLE ... AS SELECT`) can use the chosen curve directly.
    */
  def registerSql(spark: SparkSession, name: String, curve: SpaceFillingCurve): Unit =
    spark.udf.register(name, curveValue2d(curve))
}
