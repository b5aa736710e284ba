package repro.jobs

import org.apache.spark.SparkConf
import org.apache.spark.sql.SparkSession
import repro.core.SpatialGen
import repro.exp.{BMTreeExp, Claim, CostEfficiencyExp, LayoutExp, QueryExp}

/** The one entry point for every experiment: `Main <id>` prints the id's
  * tables, then one line per shape claim of the paper that they test,
  * marked `holds` or `FAILS`, and how many hold. A failed claim is reported,
  * not thrown; the bench (`sbt "bench/test"`) fails on it.
  *
  *   table6                      Table 6: GC/LC init and naive costs vs n
  *   fig9, fig10                 Figs. 9–10: GC vs NGC, LC vs NLC time (panels a–d)
  *   fig11, fig12, fig13         Figs. 11–13: BMTree with SP, GC and LC rewards
  *   fig14 … fig17               Figs. 14–17: block accesses of every curve
  *   table7                      Table 7: SFC learning time vs N
  *   layout [dist] [n] [outDir]  cost-model-chosen Parquet layout, no claims
  *                               (defaults OSM, 200000, a new temp directory)
  *   all                         every id above in this order, layout with its defaults
  *
  * Usage: sbt "runMain repro.jobs.Main <id>", or
  *        spark-submit --class repro.jobs.Main repro.jar <id>
  * `layout` runs on the master spark-submit gives (`--master`, or the
  * `spark.master` property), and on `local[*]` when none is set.
  */
object Main {

  private val experiments: Seq[(String, Seq[String] => Seq[Claim])] = Seq(
    "table6" -> (_ => show(CostEfficiencyExp.table6())(CostEfficiencyExp.table6Table, CostEfficiencyExp.table6Claims)),
    "fig9" -> (_ => costPanels(CostEfficiencyExp.Global)),
    "fig10" -> (_ => costPanels(CostEfficiencyExp.Local)),
    "fig11" -> (_ => show(BMTreeExp.varyCardinality())(BMTreeExp.fig11Table, BMTreeExp.fig11Claims)),
    "fig12" -> (_ => show(BMTreeExp.varyQueries())(BMTreeExp.fig12Table, BMTreeExp.fig12Claims)),
    "fig13" -> (_ => show(BMTreeExp.varySamplingAndDepth())(BMTreeExp.fig13Table, BMTreeExp.fig13Claims)),
    "fig14" -> (_ => show(QueryExp.overall())(QueryExp.fig14Table, QueryExp.fig14Claims)),
    "fig15" -> (_ => show(QueryExp.varyCardinality())(QueryExp.fig15Table, QueryExp.fig15Claims)),
    "fig16" -> (_ => show(QueryExp.varyAspectRatio())(QueryExp.fig16Table, QueryExp.fig16Claims)),
    "fig17" -> (_ => show(QueryExp.varyEdge())(QueryExp.fig17Table, QueryExp.fig17Claims)),
    "table7" -> (_ => show(QueryExp.learningTime())(QueryExp.table7Table, QueryExp.table7Claims)),
    "layout" -> layout,
  )

  val Ids: Seq[String] = experiments.map(_._1) :+ "all"

  /** The ids of the paper's tables and figures, in order: all but `layout` and `all`. */
  val PaperIds: Seq[String] = experiments.map(_._1).filter(_ != "layout")

  /** Print the table of `results` and return their claims. */
  private def show[R](results: R)(table: R => String, claims: R => Seq[Claim]): Seq[Claim] = {
    println(table(results))
    claims(results)
  }

  private def costPanels(model: CostEfficiencyExp.Model): Seq[Claim] =
    CostEfficiencyExp.Panels.flatMap(p =>
      show(CostEfficiencyExp.sweep(model, p))(CostEfficiencyExp.sweepTable(model, p, _),
        CostEfficiencyExp.sweepClaims(model, p, _)))

  // Arguments are checked before Spark starts: n = 0 would write empty
  // layouts and report a perfect-looking 0 files and 0 blocks.
  private def layout(args: Seq[String]): Seq[Claim] = {
    val dist = args.headOption.getOrElse("OSM")
    val n = args.lift(1).map(_.toIntOption.getOrElse(0)).getOrElse(200_000)
    if (args.size > 3 || !SpatialGen.Distributions.contains(dist) || n <= 0)
      throw new IllegalArgumentException(s"invalid layout arguments '${args.mkString(" ")}'; usage: " +
        s"layout [dist] [n] [outDir] with dist in ${SpatialGen.Distributions.mkString(", ")} and n a positive Int")
    val out = args.lift(2).getOrElse(
      java.nio.file.Files.createTempDirectory("sfc-layout").toString)
    val spark = SparkSession.builder()
      .config(new SparkConf().setIfMissing("spark.master", "local[*]"))
      .appName("sfc-layout").getOrCreate()
    try LayoutExp.run(spark, dist, n, out)
    finally spark.stop()
    Nil
  }

  /** Run experiment `id` on `args`, printing its tables; returns its claims. */
  def run(id: String, args: Seq[String] = Nil): Seq[Claim] =
    experiments.find(_._1 == id) match {
      case Some((_, exp)) => exp(args)
      case None => throw new IllegalArgumentException(
        s"unknown experiment '$id'; valid ids: ${Ids.mkString(", ")}")
    }

  /** One line per claim, marked `holds` or `FAILS`, then how many hold. */
  def report(claims: Seq[Claim]): String =
    (claims.map(c => s"${if (c.holds) "holds" else "FAILS"}: ${c.statement}") :+
      s"${claims.count(_.holds)} of ${claims.size} claims hold").mkString("\n")

  def main(args: Array[String]): Unit = {
    val id = args.headOption.getOrElse("")
    val runs = if (id == "all") experiments.map(_._1 -> Nil) else Seq(id -> args.toSeq.drop(1))
    for ((i, a) <- runs) {
      val claims = run(i, a)
      if (claims.nonEmpty) println(report(claims))
    }
  }
}
