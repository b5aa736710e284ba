package repro.exp

import repro.core._
import repro.exp.Defaults._
import repro.learn.BMTree

/** BMTree reward-replacement experiments (Section 6.3: Figures 11–13).
  *
  * Learns BMTrees with the original sampled-data reward (SP) and with the
  * paper's GC / LC rewards, reporting reward-calculation time and the
  * query cost (average block accesses over a held-out workload on the
  * *full* dataset) of the learned curves.
  */
object BMTreeExp {

  // The original BMTree samples 10⁵ of 10⁸ points; scaled to our N this
  // keeps the SP sample in the thousands so its cost profile is realistic.
  val DefaultRho = 0.05
  // Learning runs per variant; reward and learn times are the best of them.
  private val LearnRuns = 3

  final case class VariantRow(
      variant: String,
      rewardNanos: Long,
      learnNanos: Long,
      blockAccesses: Double)

  /** Learn with each reward variant on one configuration and evaluate. */
  def run(dist: String = "OSM",
          n: Int = DefaultN,
          nQueries: Int = LearnQueries,
          h: Int = DefaultH,
          rho: Double = DefaultRho,
          rewards: Seq[BMTree.Reward] = Seq(BMTree.SPReward, BMTree.GCReward, BMTree.LCReward)): Seq[VariantRow] = {
    val seed = 21L
    val bits = DefaultBits
    val data = SpatialGen.quantizeAll(SpatialGen.points(dist, n, seed), bits)
    val learnQs = Workloads.squares(dist, nQueries, DefaultEdge, bits, seed + 1)
    val testQs = Workloads.squares(dist, 2 * nQueries, DefaultEdge, bits, seed + 2)
    rewards.map { rw =>
      // The learner is deterministic: the runs learn the same curve, and
      // their best times are reported, so one pause cannot skew a row.
      val runs = Seq.fill(LearnRuns)(BMTree.learn(learnQs.toSeq, data, 2, bits, h, rho, rw, DefaultBlock, seed + 3))
      val idx = ClusteredIndex.build(data, runs.head.curve, DefaultBlock)
      VariantRow(s"BMTree-${rw.name}", runs.map(_.rewardNanos).min, runs.map(_.totalNanos).min,
        idx.avgBlockAccesses(testQs.toSeq))
    }
  }

  /** Run one small learning pass per reward so the JIT compiles the hot
    * paths before any reward time is recorded (same hygiene as the
    * cost-estimation micro-benchmarks).
    */
  private def warmup(): Unit = {
    run(n = 5_000, nQueries = 30, h = 3, rho = 0.1)
    ()
  }

  /** Fig. 11: vary the dataset cardinality N. */
  def varyCardinality(): Seq[(Int, Seq[VariantRow])] = {
    warmup()
    Seq(10_000, 100_000, 1_000_000).map(n => (n, run(n = n)))
  }

  /** Fig. 12: vary the number of learning queries n. */
  def varyQueries(): Seq[(Int, Seq[VariantRow])] = {
    warmup()
    Seq(50, 100, 200, 400).map(q => (q, run(nQueries = q)))
  }

  /** Fig. 13: vary the sampling rate ρ (SP only) and the depth h (all). */
  def varySamplingAndDepth(): (Seq[(Double, Int, VariantRow)], Seq[(Int, VariantRow)], Seq[(Int, VariantRow)]) = {
    warmup()
    val dist = "SKEW"
    val rhos = Seq(0.001, 0.01, 0.1)
    val hs = Seq(4, 6, 8)
    val sp = for (h <- hs; rho <- rhos)
      yield (rho, h, run(dist = dist, h = h, rho = rho, rewards = Seq(BMTree.SPReward)).head)
    val gc = hs.map(h => (h, run(dist = dist, h = h, rewards = Seq(BMTree.GCReward)).head))
    val lc = hs.map(h => (h, run(dist = dist, h = h, rewards = Seq(BMTree.LCReward)).head))
    (sp, gc, lc)
  }

  private def ms(nanos: Long): String = TableFmt.ms(nanos.toDouble)

  def fig11Table(results: Seq[(Int, Seq[VariantRow])]): String =
    TableFmt.render("Fig 11: BMTree variants vs N (OSM-like)",
      Seq("N", "variant", "reward (ms)", "learn (ms)", "block accesses"),
      for ((n, vs) <- results; v <- vs)
        yield Seq(n.toString, v.variant, ms(v.rewardNanos), ms(v.learnNanos),
          f"${v.blockAccesses}%.1f"))

  def fig12Table(results: Seq[(Int, Seq[VariantRow])]): String =
    TableFmt.render("Fig 12: BMTree variants vs learning queries (OSM-like)",
      Seq("n queries", "variant", "reward (ms)", "block accesses"),
      for ((n, vs) <- results; v <- vs)
        yield Seq(n.toString, v.variant, ms(v.rewardNanos), f"${v.blockAccesses}%.1f"))

  def fig13Table(sp: Seq[(Double, Int, VariantRow)], gc: Seq[(Int, VariantRow)],
                 lc: Seq[(Int, VariantRow)]): String = {
    def row(config: String, v: VariantRow) =
      Seq(config, ms(v.rewardNanos), f"${v.blockAccesses}%.1f")
    TableFmt.render("Fig 13: reward time vs query cost (SKEW-like)",
      Seq("config", "reward (ms)", "block accesses"),
      sp.map { case (rho, h, v) => row(f"SP ρ=$rho%.3f h=$h", v) } ++
        gc.map { case (h, v) => row(s"GC h=$h", v) } ++
        lc.map { case (h, v) => row(s"LC h=$h", v) })
  }
}
