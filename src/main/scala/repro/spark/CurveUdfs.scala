package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.udf
import repro.core.SpaceFillingCurve

/** Spark UDFs computing SFC values — the glue that lets a curve chosen by
  * the O(1) cost model drive DataFrame ordering and Parquet layout.
  */
object CurveUdfs {

  /** Append the curve-value column `sfc` of a 2-D curve, computed by a UDF
    * from the quantized `xq`/`yq` cell columns.
    */
  def withCurveValue(df: DataFrame, curve: SpaceFillingCurve): DataFrame = {
    require(curve.d == 2, s"curve is ${curve.d}-dimensional, expected 2")
    val value = udf((x: Long, y: Long) => curve.value(Array(x, y)))
    df.withColumn("sfc", value(df("xq"), df("yq")))
  }
}
