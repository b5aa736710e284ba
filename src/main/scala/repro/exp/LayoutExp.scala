package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.Defaults._
import repro.learn.Quilts
import repro.spark.{BlockAccess, Layout, SpatialData}

/** The cost model deployed in Spark (not a paper table): the O(1)
  * estimator chooses, among the QUILTS candidates, the space-filling curve
  * that clusters a table before it is written to Parquet; no network is
  * trained. The run reports the file skipping and block accesses of that
  * layout next to the candidate the model ranks worst. The inputs are a
  * [[Defaults.Case]] from seed 1 with queries of 1/8 × 1/64 of the grid; its
  * learning queries serve both to choose and to measure.
  */
object LayoutExp {

  final case class Row(layout: String, curve: BMC, filesTouched: Double, blockAccesses: Double)

  private val NumFiles = 32

  /** Choose, write and measure both layouts under `out`, printing the
    * choice and the table; returns the queries and the rows.
    */
  def run(spark: SparkSession, dist: String, n: Int, out: String): (Array[Rect], Seq[Row]) = {
    val k = 1L << DefaultBits
    val c = Case(dist, n, 1L, Workloads.rectangles(dist, _, k >> 3, k >> 6, DefaultBits, _))
    val df = SpatialData.dataset(spark, c.dist, c.n, c.seed, DefaultBits)
    val queries = c.learnQs

    // Candidates: the QUILTS designs, which include ZC and both lexicographic curves.
    val wc = WorkloadCost(queries.toSeq, 2, DefaultBits)
    val candidates = Quilts.candidates(queries.toSeq, 2, DefaultBits)
    val (best, bestCost) = Layout.chooseCurve(wc, candidates)
    val worst = candidates.maxBy(wc.cost)
    println(s"chosen curve: $best (cost $bestCost); adversarial: $worst")

    val bestPath = s"$out/best"
    val worstPath = s"$out/worst"
    val (_, tWrite) = TableFmt.timed(Layout.write(df, best, bestPath, NumFiles))
    Layout.write(df, worst, worstPath, NumFiles)
    println(f"layout written to $bestPath in ${tWrite / 1e9}%.1f s")

    val rows = Seq(("chosen", best, bestPath), ("adversarial", worst, worstPath)).map {
      case (name, curve, path) =>
        Row(name, curve, Layout.avgFilesTouched(spark, path, queries),
          BlockAccess.average(spark, df, curve, DefaultBlock, queries))
    }
    println(TableFmt.render(s"Parquet layout quality ($dist, N=$n, $NumFiles files)",
      Seq("layout", "avg files touched", "avg block accesses"),
      rows.map(r => Seq(r.layout, f"${r.filesTouched}%.2f", f"${r.blockAccesses}%.1f"))))
    (queries, rows)
  }
}
