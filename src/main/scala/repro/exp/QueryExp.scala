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
  * PostgreSQL metric, simulated by [[repro.core.ClusteredIndex]]. Every
  * figure cell is one [[Defaults.Case]]: its competitors learn on the
  * case's learning queries and are scored by `Case.blockAccesses`.
  */
object QueryExp {

  // The BMTree competitor's sampling rate ρ.
  private val BMTreeRho = 0.02
  // Fig. 15's data seed and cardinalities, timed by Table 7 too; Fig. 11 sweeps the same N.
  private val CardinalitySeed = 51L
  private[exp] val Cardinalities = Seq(10_000, 100_000, 1_000_000)

  /** A competitor's curve and its Table 7 learning time: 0 for a fixed
    * curve; LBMC's and QUILTS's include the init of the cost model they share.
    */
  final case class CurveRow(name: String, curve: SpaceFillingCurve, learnNanos: Long)

  /** The three learned competitors of one dataset + learning workload. */
  private final case class Learners(lbmc: CurveRow, bmtree: CurveRow, quilts: CurveRow)

  private def learners(data: Array[Array[Long]], learnQs: Array[Rect]): Learners = {
    val (wc, wcNanos) = TableFmt.timed(WorkloadCost(learnQs.toSeq, 2, DefaultBits))
    val lbmc = new LBMC(wc).learn(BMC.zOrder(2, DefaultBits))
    val bmtree = BMTree.learn(learnQs.toSeq, data, 2, DefaultBits, DefaultH, BMTreeRho, BMTree.SPReward, DefaultBlock, seed = 31)
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

  /** Each competitor's block accesses in case `c`. */
  private def scores(c: Case): Seq[(String, Double)] =
    competitors(c.data, c.learnQs).map(r => (r.name, c.blockAccesses(r.curve)))

  /** Fig. 14: all curves on all four datasets. */
  def overall(): Seq[(String, Seq[(String, Double)])] =
    SpatialGen.Distributions.map(dist =>
      (dist, scores(Case(dist, DefaultN, 41L, Workloads.squares(dist, _, DefaultEdge, DefaultBits, _)))))

  /** Fig. 15's case at cardinality n, whose learners Table 7 times. */
  private def cardinalityCase(n: Int): Case =
    Case("OSM", n, CardinalitySeed, Workloads.squares("OSM", _, DefaultEdge, DefaultBits, _))

  /** Fig. 15: vary the dataset cardinality (OSM-like). */
  def varyCardinality(): Seq[(Int, Seq[(String, Double)])] =
    Cardinalities.map(n => (n, scores(cardinalityCase(n))))

  /** Fig. 16: vary the query aspect ratio at fixed area (OSM-like). */
  def varyAspectRatio(): Seq[(String, Seq[(String, Double)])] =
    Seq(16.0, 4.0, 1.0, 0.25, 0.0625).map { r =>
      val label = if (r >= 1) s"${r.toInt}:1" else s"1:${(1 / r).toInt}"
      (label, scores(Case("OSM", DefaultN, 61L, Workloads.withAspectRatio("OSM", _, DefaultEdge, r, DefaultBits, _))))
    }

  /** Fig. 17: vary the query edge length (OSM-like). */
  def varyEdge(): Seq[(Long, Seq[(String, Double)])] =
    Seq(2048L, 4096L, 8192L, 16384L).map(e =>
      (e, scores(Case("OSM", DefaultN, 71L, Workloads.squares("OSM", _, e, DefaultBits, _)))))

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

  /** Table 7's shape: BMTree's learning time grows with N, LBMC's stays
    * flat, and QUILTS, which scores only a handful of curves, is fastest.
    */
  def table7Claims(rows: Seq[LearningTime]): Seq[Claim] = {
    def ms(nanos: Seq[Long]): String = nanos.map(t => TableFmt.ms(t.toDouble)).mkString("(", ", ", ") ms")
    val bmTimes = rows.map(_.bmtreeNanos)
    val lbTimes = rows.map(_.lbmcNanos)
    val quTimes = rows.map(_.quiltsNanos)
    Seq(
      Claim(s"Table 7: BMTree at N=${rows.last.n} > 2 × at N=${rows.head.n}: ${ms(bmTimes)}", bmTimes.last > bmTimes.head * 2),
      Claim(s"Table 7: LBMC's max < 5 × its min: ${ms(lbTimes)}", lbTimes.max < lbTimes.min * 5),
      Claim(s"Table 7: QUILTS's max < LBMC's min: ${ms(quTimes)} vs ${ms(lbTimes)}", quTimes.max < lbTimes.min))
  }

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

  /** LBMC within `f`× of the best curve, one claim per swept value. */
  private def lbmcNearBest[K](fig: String, key: String, f: Double,
                              results: Seq[(K, Seq[(String, Double)])]): Seq[Claim] =
    results.map { case (k, scores) =>
      val (bestName, best) = scores.minBy(_._2)
      val lbmc = scores.toMap.apply("LBMC")
      Claim(f"$fig, $key=$k: LBMC $lbmc%.1f ≤ $f × best ($bestName $best%.1f)", lbmc <= best * f)
    }

  /** Every curve's block accesses grow from the first swept value to the last. */
  private def everyCurveGrows[K](fig: String, key: String, results: Seq[(K, Seq[(String, Double)])]): Seq[Claim] = {
    val (first, firstScores) = results.head
    val (last, lastScores) = results.last
    firstScores.map { case (name, a) =>
      val b = lastScores.toMap.apply(name)
      Claim(f"$fig: $name at $key=$last $b%.1f > at $key=$first $a%.1f", b > a)
    }
  }

  /** Fig. 14's shape: LBMC is near the best curve and no worse than the
    * lexicographic curve on every dataset, and learning pays off under skew.
    */
  def fig14Claims(results: Seq[(String, Seq[(String, Double)])]): Seq[Claim] = {
    val skew = results.find(_._1 == "SKEW").get._2.toMap
    lbmcNearBest("Fig 14", "dataset", 1.35, results) ++ results.map { case (dist, scores) =>
      val m = scores.toMap
      Claim(f"Fig 14, dataset=$dist: LBMC ${m("LBMC")}%.1f ≤ LC ${m("LC")}%.1f", m("LBMC") <= m("LC"))
    } :+ Claim(f"Fig 14, dataset=SKEW: LBMC ${skew("LBMC")}%.1f ≤ 1.05 × ZC ${skew("ZC")}%.1f",
      skew("LBMC") <= skew("ZC") * 1.05)
  }

  /** Fig. 15's shape: every curve costs more at larger N, and LBMC stays near the best. */
  def fig15Claims(results: Seq[(Int, Seq[(String, Double)])]): Seq[Claim] =
    everyCurveGrows("Fig 15", "N", results) ++ lbmcNearBest("Fig 15", "N", 1.35, results)

  /** Fig. 16's shape: LBMC adapts to every stretch, and beats the
    * shape-oblivious ZC on at least one extreme ratio.
    */
  def fig16Claims(results: Seq[(String, Seq[(String, Double)])]): Seq[Claim] = {
    val extremes = results.filter(r => r._1 == "16:1" || r._1 == "1:16")
    val zcWins = extremes.count { case (_, s) =>
      val m = s.toMap; m("LBMC") <= m("ZC")
    }
    lbmcNearBest("Fig 16", "ratio", 1.5, results) :+
      Claim(s"Fig 16: LBMC ≤ ZC at $zcWins of the ${extremes.size} extreme ratios, ≥ 1", zcWins >= 1)
  }

  /** Fig. 17's shape: every curve costs more on larger queries, and LBMC stays near the best. */
  def fig17Claims(results: Seq[(Long, Seq[(String, Double)])]): Seq[Claim] =
    everyCurveGrows("Fig 17", "edge", results) ++ lbmcNearBest("Fig 17", "edge", 1.5, results)
}
