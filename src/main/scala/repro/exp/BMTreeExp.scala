package repro.exp

import repro.core._
import repro.exp.Defaults._
import repro.learn.BMTree

/** BMTree reward-replacement experiments (Section 6.3: Figures 11–13).
  *
  * Learns BMTrees with the original sampled-data reward (SP) and with the
  * paper's GC / LC rewards, reporting reward-calculation time and the
  * query cost of the learned curves: `Case.blockAccesses` of the
  * configuration's [[Defaults.Case]], on the *full* dataset.
  */
object BMTreeExp {

  // The original BMTree samples 10⁵ of 10⁸ points; scaled to our N, SP's ρ
  // keeps its sample in the thousands so its cost profile is realistic.
  private val SampleRho = 0.05
  private val Seed = 21L
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
          rho: Double = SampleRho,
          rewards: Seq[BMTree.Reward] = Seq(BMTree.SPReward, BMTree.GCReward, BMTree.LCReward)): Seq[VariantRow] = {
    val c = Case(dist, n, Seed, Workloads.squares(dist, _, DefaultEdge, DefaultBits, _), nQueries)
    rewards.map { rw =>
      // The learner is deterministic: the runs learn the same curve, and
      // their best times are reported, so one pause cannot skew a row.
      val runs = Seq.fill(LearnRuns)(BMTree.learn(c.learnQs.toSeq, c.data, 2, DefaultBits, h, rho, rw, DefaultBlock, Seed + 3))
      VariantRow(s"BMTree-${rw.name}", runs.map(_.rewardNanos).min, runs.map(_.totalNanos).min,
        c.blockAccesses(runs.head.curve))
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
    QueryExp.Cardinalities.map(n => (n, run(n = n)))
  }

  /** Fig. 12: vary the number of learning queries n. */
  def varyQueries(): Seq[(Int, Seq[VariantRow])] = {
    warmup()
    Seq(50, 100, 200, 400).map(q => (q, run(nQueries = q)))
  }

  /** Fig. 13's rows: SP at each (ρ, h), GC and LC at each h. */
  final case class SamplingDepth(sp: Seq[(Double, Int, VariantRow)], gc: Seq[(Int, VariantRow)],
                                 lc: Seq[(Int, VariantRow)])

  /** Fig. 13: vary the sampling rate ρ (SP only) and the depth h (all). */
  def varySamplingAndDepth(): SamplingDepth = {
    warmup()
    val dist = "SKEW"
    val rhos = Seq(0.001, 0.01, 0.1)
    val hs = Seq(4, 6, 8)
    val sp = for (h <- hs; rho <- rhos)
      yield (rho, h, run(dist = dist, h = h, rho = rho, rewards = Seq(BMTree.SPReward)).head)
    val gc = hs.map(h => (h, run(dist = dist, h = h, rewards = Seq(BMTree.GCReward)).head))
    val lc = hs.map(h => (h, run(dist = dist, h = h, rewards = Seq(BMTree.LCReward)).head))
    SamplingDepth(sp, gc, lc)
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

  def fig13Table(r: SamplingDepth): String = {
    def row(config: String, v: VariantRow) =
      Seq(config, ms(v.rewardNanos), f"${v.blockAccesses}%.1f")
    TableFmt.render("Fig 13: reward time vs query cost (SKEW-like)",
      Seq("config", "reward (ms)", "block accesses"),
      r.sp.map { case (rho, h, v) => row(f"SP ρ=$rho%.3f h=$h", v) } ++
        r.gc.map { case (h, v) => row(s"GC h=$h", v) } ++
        r.lc.map { case (h, v) => row(s"LC h=$h", v) })
  }

  private def reward(rows: Seq[VariantRow], variant: String): Long =
    rows.find(_.variant == s"BMTree-$variant").get.rewardNanos

  private def rewardAt(key: String, rows: Seq[VariantRow], variant: String): String =
    s"$variant reward at $key ${ms(reward(rows, variant))} ms"

  /** Fig. 11's shape: SP's reward time grows with N, GC's and LC's do not,
    * SP is the slowest at the largest N, and the three curves' block
    * accesses stay in one ballpark there.
    */
  def fig11Claims(results: Seq[(Int, Seq[VariantRow])]): Seq[Claim] = {
    val (nMin, small) = results.head
    val (nMax, large) = results.last
    def grows(v: String, op: String) = s"Fig 11: ${rewardAt(s"N=$nMax", large, v)} $op ${rewardAt(s"N=$nMin", small, v)}"
    val ba = large.map(_.blockAccesses)
    Seq(
      Claim(grows("SP", "> 3 ×"), reward(large, "SP") > reward(small, "SP") * 3),
      Claim(grows("GC", "< 10 ×"), reward(large, "GC") < reward(small, "GC") * 10),
      Claim(grows("LC", "< 10 ×"), reward(large, "LC") < reward(small, "LC") * 10),
      Claim(s"Fig 11: ${rewardAt(s"N=$nMax", large, "SP")} > ${rewardAt(s"N=$nMax", large, "GC")}",
        reward(large, "SP") > reward(large, "GC")),
      Claim(f"Fig 11: block accesses at N=$nMax: max ${ba.max}%.1f < 4 × max(1, min ${ba.min}%.1f)",
        ba.max < math.max(1.0, ba.min) * 4))
  }

  /** Fig. 12's shape: SP's reward is slower than GC's at every n, and than
    * LC's at three n or more (timer jitter may flip one point).
    */
  def fig12Claims(results: Seq[(Int, Seq[VariantRow])]): Seq[Claim] = {
    val lcWins = results.count { case (_, rows) => reward(rows, "SP") > reward(rows, "LC") }
    results.map { case (n, rows) =>
      Claim(s"Fig 12: ${rewardAt(s"n=$n", rows, "SP")} > ${rewardAt(s"n=$n", rows, "GC")}",
        reward(rows, "SP") > reward(rows, "GC"))
    } :+ Claim(s"Fig 12: SP reward > LC reward at $lcWins of ${results.size} n, ≥ 3", lcWins >= 3)
  }

  /** Fig. 13's shape at the default depth: SP's reward time grows with ρ, and
    * LC sits bottom-left, faster than SP at the largest ρ with block accesses
    * close to SP's best.
    */
  def fig13Claims(r: SamplingDepth): Seq[Claim] = {
    val spAtH = r.sp.filter(_._2 == DefaultH).sortBy(_._1).map { case (rho, _, v) => (rho, v) }
    val ((rhoMin, spLow), (rhoMax, spHigh)) = (spAtH.head, spAtH.last)
    val lcAtH = r.lc.find(_._1 == DefaultH).get._2
    val spBest = spAtH.map(_._2.blockAccesses).min
    Seq(
      Claim(s"Fig 13: SP reward at ρ=$rhoMax, h=$DefaultH ${ms(spHigh.rewardNanos)} ms > at ρ=$rhoMin ${ms(spLow.rewardNanos)} ms",
        spHigh.rewardNanos > spLow.rewardNanos),
      Claim(s"Fig 13: LC reward at h=$DefaultH ${ms(lcAtH.rewardNanos)} ms < SP's at ρ=$rhoMax ${ms(spHigh.rewardNanos)} ms",
        lcAtH.rewardNanos < spHigh.rewardNanos),
      Claim(f"Fig 13: LC block accesses at h=$DefaultH ${lcAtH.blockAccesses}%.1f < 3 × max(1, SP's best $spBest%.1f)",
        lcAtH.blockAccesses < math.max(1.0, spBest) * 3))
  }
}
