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

  val DefaultRho = 0.02
  // Fig. 15's data seed and cardinalities, which Table 7 times too.
  private val CardinalitySeed = 51L
  private val Cardinalities = Seq(10_000, 100_000, 1_000_000)

  /** A competitor's curve and its Table 7 learning time: 0 for a fixed
    * curve; LBMC's and QUILTS's include the init of the cost model they share.
    */
  final case class CurveRow(name: String, curve: SpaceFillingCurve, learnNanos: Long)

  /** The three learned competitors of one dataset + learning workload. */
  private final case class Learners(lbmc: CurveRow, bmtree: CurveRow, quilts: CurveRow)

  private def learners(data: Array[Array[Long]], learnQs: Array[Rect]): Learners = {
    val (wc, wcNanos) = TableFmt.timed(WorkloadCost(learnQs.toSeq, 2, DefaultBits))
    val lbmc = new LBMC(wc).learn(BMC.zOrder(2, DefaultBits))
    val bmtree = BMTree.learn(learnQs.toSeq, data, 2, DefaultBits, DefaultH, DefaultRho, BMTree.SPReward, DefaultBlock, seed = 31)
    val ((quilts, _), quiltsNanos) = TableFmt.timed(Quilts.design(wc, DefaultBits))
    Learners(CurveRow("LBMC", lbmc.best, wcNanos + lbmc.totalNanos),
      CurveRow("BMTree", bmtree.curve, bmtree.totalNanos), CurveRow("QUILTS", quilts, wcNanos + quiltsNanos))
  }

  /** Build all six competitors for one dataset + learning workload. */
  def competitors(data: Array[Array[Long]], learnQs: Array[Rect]): Seq[CurveRow] = {
    val l = learners(data, learnQs)
    Seq(l.lbmc, l.bmtree, l.quilts, CurveRow("ZC", BMC.zOrder(2, DefaultBits), 0L),
      CurveRow("HC", new Hilbert(2, DefaultBits), 0L), CurveRow("LC", BMC.lexicographic(2, DefaultBits, 0), 0L))
  }

  /** Average block accesses of each curve over the test workload. */
  def evaluate(data: Array[Array[Long]], curves: Seq[CurveRow], testQs: Array[Rect]): Seq[(String, Double)] =
    curves.map { c =>
      val idx = ClusteredIndex.build(data, c.curve, DefaultBlock)
      (c.name, idx.avgBlockAccesses(testQs.toSeq))
    }

  /** One case of Figs. 14–17: `data` comes from `seed`, and every competitor
    * is learned on `LearnQueries` queries from seed + 1 and scored on twice as
    * many from seed + 2; `queries(count, seed)` makes each set.
    */
  private final case class Case(data: Array[Array[Long]], seed: Long, queries: (Int, Long) => Array[Rect]) {
    def learnQs: Array[Rect] = queries(LearnQueries, seed + 1)
    def scores: Seq[(String, Double)] = evaluate(data, competitors(data, learnQs), queries(2 * LearnQueries, seed + 2))
  }

  /** Fig. 14: all curves on all four datasets. */
  def overall(): Seq[(String, Seq[(String, Double)])] = {
    val seed = 41L
    SpatialGen.Distributions.map { dist =>
      val data = SpatialGen.quantizeAll(SpatialGen.points(dist, DefaultN, seed), DefaultBits)
      (dist, Case(data, seed, Workloads.squares(dist, _, DefaultEdge, DefaultBits, _)).scores)
    }
  }

  private def osmData(n: Int, seed: Long): Array[Array[Long]] =
    SpatialGen.quantizeAll(SpatialGen.points("OSM", n, seed), DefaultBits)

  /** Fig. 15's case at cardinality n, whose learners Table 7 times. */
  private def cardinalityCase(n: Int): Case =
    Case(osmData(n, CardinalitySeed), CardinalitySeed, Workloads.squares("OSM", _, DefaultEdge, DefaultBits, _))

  /** Fig. 15: vary the dataset cardinality (OSM-like). */
  def varyCardinality(): Seq[(Int, Seq[(String, Double)])] =
    Cardinalities.map(n => (n, cardinalityCase(n).scores))

  /** Fig. 16: vary the query aspect ratio at fixed area (OSM-like). */
  def varyAspectRatio(): Seq[(String, Seq[(String, Double)])] = {
    val seed = 61L
    val data = osmData(DefaultN, seed)
    Seq(16.0, 4.0, 1.0, 0.25, 0.0625).map { r =>
      val label = if (r >= 1) s"${r.toInt}:1" else s"1:${(1 / r).toInt}"
      (label, Case(data, seed, Workloads.withAspectRatio("OSM", _, DefaultEdge, r, DefaultBits, _)).scores)
    }
  }

  /** Fig. 17: vary the query edge length (OSM-like). */
  def varyEdge(): Seq[(Long, Seq[(String, Double)])] = {
    val seed = 71L
    val data = osmData(DefaultN, seed)
    Seq(2048L, 4096L, 8192L, 16384L).map(e =>
      (e, Case(data, seed, Workloads.squares("OSM", _, e, DefaultBits, _)).scores))
  }

  final case class LearningTime(n: Int, bmtreeNanos: Long, lbmcNanos: Long, quiltsNanos: Long)

  /** Table 7: learning time of BMTree (SP reward), LBMC and QUILTS vs N while
    * they learn Fig. 15's curves for [[competitors]]. An untimed pass at N = 5,000
    * first lets the JIT compile them, so the first timed row does not run in a cold JVM.
    */
  def learningTime(): Seq[LearningTime] = {
    def measure(n: Int): LearningTime = {
      val c = cardinalityCase(n)
      val l = learners(c.data, c.learnQs)
      LearningTime(n, l.bmtree.learnNanos, l.lbmc.learnNanos, l.quilts.learnNanos)
    }
    measure(5_000)
    Cardinalities.map(measure)
  }

  def table7Table(rows: Seq[LearningTime]): String =
    TableFmt.render("Table 7: SFC learning time (ms) vs N (OSM-like)",
      Seq("N", "BMTree (ms)", "LBMC (ms)", "QUILTS (ms)"),
      rows.map(r => Seq(r.n.toString, TableFmt.ms(r.bmtreeNanos.toDouble),
        TableFmt.ms(r.lbmcNanos.toDouble), TableFmt.ms(r.quiltsNanos.toDouble))))

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
