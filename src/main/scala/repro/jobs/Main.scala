package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.SpatialGen
import repro.exp.{BMTreeExp, CostEfficiencyExp, LayoutExp, QueryExp}

/** The one entry point for every experiment: `Main <id>` prints the tables
  * the matching bench suite prints.
  *
  *   table6                      Table 6: GC/LC init and naive costs vs n
  *   fig9, fig10                 Figs. 9–10: GC vs NGC, LC vs NLC time (panels a–d)
  *   fig11, fig12, fig13         Figs. 11–13: BMTree with SP, GC and LC rewards
  *   fig14 … fig17               Figs. 14–17: block accesses of every curve
  *   table7                      Table 7: SFC learning time vs N
  *   layout [dist] [n] [outDir]  cost-model-chosen Parquet layout
  *                               (defaults OSM, 200000, a new temp directory)
  *   all                         every id above in this order, layout with its defaults
  *
  * Usage: sbt "runMain repro.jobs.Main <id>", or
  *        spark-submit --class repro.jobs.Main repro.jar <id>
  */
object Main {

  private val experiments: Seq[(String, Seq[String] => Unit)] = Seq(
    "table6" -> (_ => println(CostEfficiencyExp.table6Table(CostEfficiencyExp.table6()))),
    "fig9" -> (_ => costPanels(CostEfficiencyExp.Global)),
    "fig10" -> (_ => costPanels(CostEfficiencyExp.Local)),
    "fig11" -> (_ => println(BMTreeExp.fig11Table(BMTreeExp.varyCardinality()))),
    "fig12" -> (_ => println(BMTreeExp.fig12Table(BMTreeExp.varyQueries()))),
    "fig13" -> { _ =>
      val (sp, gc, lc) = BMTreeExp.varySamplingAndDepth()
      println(BMTreeExp.fig13Table(sp, gc, lc))
    },
    "fig14" -> (_ => println(QueryExp.fig14Table(QueryExp.overall()))),
    "fig15" -> (_ => println(QueryExp.fig15Table(QueryExp.varyCardinality()))),
    "fig16" -> (_ => println(QueryExp.fig16Table(QueryExp.varyAspectRatio()))),
    "fig17" -> (_ => println(QueryExp.fig17Table(QueryExp.varyEdge()))),
    "table7" -> (_ => println(QueryExp.table7Table(QueryExp.learningTime()))),
    "layout" -> layout,
  )

  val Ids: Seq[String] = experiments.map(_._1) :+ "all"

  private def costPanels(model: CostEfficiencyExp.Model): Unit =
    for (p <- CostEfficiencyExp.Panels)
      println(CostEfficiencyExp.sweepTable(model, p, CostEfficiencyExp.sweep(model, p)))

  // Arguments are checked before Spark starts: n = 0 would write empty
  // layouts and report a perfect-looking 0 files and 0 blocks.
  private def layout(args: Seq[String]): Unit = {
    val dist = args.headOption.getOrElse("OSM")
    val n = args.lift(1).map(_.toIntOption.getOrElse(0)).getOrElse(200_000)
    if (args.size > 3 || !SpatialGen.Distributions.contains(dist) || n <= 0)
      throw new IllegalArgumentException(s"invalid layout arguments '${args.mkString(" ")}'; usage: " +
        s"layout [dist] [n] [outDir] with dist in ${SpatialGen.Distributions.mkString(", ")} and n a positive Int")
    val out = args.lift(2).getOrElse(
      java.nio.file.Files.createTempDirectory("sfc-layout").toString)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("sfc-layout").getOrCreate()
    try LayoutExp.run(spark, dist, n, out)
    finally spark.stop()
  }

  def main(args: Array[String]): Unit = {
    val id = args.headOption.getOrElse("")
    if (id == "all") experiments.foreach(_._2(Nil))
    else experiments.find(_._1 == id) match {
      case Some((_, run)) => run(args.toSeq.drop(1))
      case None => throw new IllegalArgumentException(
        s"unknown experiment '$id'; valid ids: ${Ids.mkString(", ")}")
    }
  }
}
