package repro.exp

import repro.core._
import repro.exp.Defaults._
import repro.learn.{BMTree, LBMC, Quilts}

/** Query-efficiency and learning-time experiments (Section 6.4:
  * Figures 14–17 and Table 7).
  *
  * Compares the curves learned/constructed by LBMC, BMTree (SP reward,
  * like the released code the paper uses), QUILTS, ZC, HC, and LC by the
  * average number of block accesses on the full dataset — the paper's
  * PostgreSQL metric, simulated by [[repro.core.ClusteredIndex]].
  */
object QueryExp {

  val LearnQueries = 200
  val TestQueries = 400
  val DefaultRho = 0.02

  final case class CurveRow(name: String, curve: SpaceFillingCurve)

  /** Build all six competitors for one dataset + learning workload. */
  def competitors(data: Array[Array[Long]], learnQs: Array[Rect]): Seq[CurveRow] = {
    val bits = DefaultBits
    val wc = WorkloadCost(learnQs.toSeq, 2, bits)
    Seq(
      CurveRow("LBMC", new LBMC(wc).learn(BMC.zOrder(2, bits)).best),
      CurveRow("BMTree",
        BMTree.learn(learnQs.toSeq, data, 2, bits, DefaultH, DefaultRho, BMTree.SPReward, DefaultBlock, seed = 31).curve),
      CurveRow("QUILTS", Quilts.design(wc, bits)._1),
      CurveRow("ZC", BMC.zOrder(2, bits)),
      CurveRow("HC", new Hilbert(2, bits)),
      CurveRow("LC", BMC.lexicographic(2, bits, 0)),
    )
  }

  /** Average block accesses of each curve over the test workload. */
  def evaluate(data: Array[Array[Long]], curves: Seq[CurveRow], testQs: Array[Rect]): Seq[(String, Double)] =
    curves.map { c =>
      val idx = ClusteredIndex.build(data, c.curve, DefaultBlock)
      (c.name, idx.avgBlockAccesses(testQs.toSeq))
    }

  /** One case of Figs. 14–17: every competitor learned on `LearnQueries`
    * queries from seed + 1 and scored on `TestQueries` from seed + 2, where
    * `data` comes from seed; `queries(count, seed)` makes each set.
    */
  private def scoreCase(data: Array[Array[Long]], seed: Long)(
      queries: (Int, Long) => Array[Rect]): Seq[(String, Double)] =
    evaluate(data, competitors(data, queries(LearnQueries, seed + 1)), queries(TestQueries, seed + 2))

  /** Fig. 14: all curves on all four datasets. */
  def overall(): Seq[(String, Seq[(String, Double)])] = {
    val seed = 41L
    SpatialGen.Distributions.map { dist =>
      val data = SpatialGen.quantizeAll(SpatialGen.points(dist, DefaultN, seed), DefaultBits)
      (dist, scoreCase(data, seed)(Workloads.squares(dist, _, DefaultEdge, DefaultBits, _)))
    }
  }

  /** Fig. 15: vary the dataset cardinality (OSM-like). */
  def varyCardinality(): Seq[(Int, Seq[(String, Double)])] = {
    val seed = 51L
    Seq(10_000, 100_000, 1_000_000).map { n =>
      val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, seed), DefaultBits)
      (n, scoreCase(data, seed)(Workloads.squares("OSM", _, DefaultEdge, DefaultBits, _)))
    }
  }

  /** Fig. 16: vary the query aspect ratio at fixed area (OSM-like). */
  def varyAspectRatio(): Seq[(String, Seq[(String, Double)])] = {
    val seed = 61L
    val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", DefaultN, seed), DefaultBits)
    Seq(16.0, 4.0, 1.0, 0.25, 0.0625).map { r =>
      val label = if (r >= 1) s"${r.toInt}:1" else s"1:${(1 / r).toInt}"
      (label, scoreCase(data, seed)(Workloads.withAspectRatio("OSM", _, DefaultEdge, r, DefaultBits, _)))
    }
  }

  /** Fig. 17: vary the query edge length (OSM-like). */
  def varyEdge(): Seq[(Long, Seq[(String, Double)])] = {
    val seed = 71L
    val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", DefaultN, seed), DefaultBits)
    Seq(2048L, 4096L, 8192L, 16384L).map(e =>
      (e, scoreCase(data, seed)(Workloads.squares("OSM", _, e, DefaultBits, _))))
  }

  final case class LearningTime(n: Int, bmtreeNanos: Long, lbmcNanos: Long, quiltsNanos: Long)

  /** Table 7: learning time of BMTree (SP reward), LBMC and QUILTS vs N
    * (OSM-like); LBMC's and QUILTS's times include the cost model's init.
    * An untimed pass at N = 5,000 first lets the JIT compile the learners,
    * so the first timed row does not run in a cold JVM.
    */
  def learningTime(): Seq[LearningTime] = {
    val bits = DefaultBits
    val learnQs = Workloads.squares("OSM", LearnQueries, DefaultEdge, bits, 3).toSeq
    def measure(n: Int): LearningTime = {
      val data = SpatialGen.quantizeAll(SpatialGen.points("OSM", n, 2), bits)
      val bmtree = BMTree.learn(learnQs, data, 2, bits, DefaultH, DefaultRho,
        BMTree.SPReward, DefaultBlock)
      val (wc, wcNanos) = TableFmt.timed(WorkloadCost(learnQs, 2, bits))
      val lbmc = new LBMC(wc).learn(BMC.zOrder(2, bits))
      val (_, quiltsNanos) = TableFmt.timed(Quilts.design(wc, bits))
      LearningTime(n, bmtree.totalNanos, wcNanos + lbmc.totalNanos, wcNanos + quiltsNanos)
    }
    measure(5_000)
    Seq(10_000, 100_000, 1_000_000).map(measure)
  }

  def table7Table(rows: Seq[LearningTime]): String =
    TableFmt.render("Table 7: SFC learning time (seconds) vs N (OSM-like)",
      Seq("N", "BMTree (s)", "LBMC (s)", "QUILTS (s)"),
      rows.map(r => Seq(r.n.toString, TableFmt.secs(r.bmtreeNanos.toDouble),
        TableFmt.secs(r.lbmcNanos.toDouble), TableFmt.secs(r.quiltsNanos.toDouble))))

  /** Block accesses per curve, one row per swept value `key`. */
  private def scoreTable[K](caption: String, key: String,
                            results: Seq[(K, Seq[(String, Double)])]): String =
    TableFmt.render(caption, key +: results.head._2.map(_._1),
      results.map { case (k, scores) => k.toString +: scores.map { case (_, ba) => f"$ba%.1f" } })

  def fig14Table(results: Seq[(String, Seq[(String, Double)])]): String =
    scoreTable("Fig 14: avg block accesses (rows=dataset, cols=curve)", "dataset", results)

  def fig15Table(results: Seq[(Int, Seq[(String, Double)])]): String =
    scoreTable("Fig 15: avg block accesses vs N (OSM-like)", "N", results)

  def fig16Table(results: Seq[(String, Seq[(String, Double)])]): String =
    scoreTable("Fig 16: avg block accesses vs aspect ratio (OSM-like)", "ratio", results)

  def fig17Table(results: Seq[(Long, Seq[(String, Double)])]): String =
    scoreTable("Fig 17: avg block accesses vs query edge (OSM-like)", "edge", results)
}
