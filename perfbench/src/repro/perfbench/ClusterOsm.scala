package repro.perfbench

import repro.core._
import repro.learn.{BMTree, Quilts}
import Calls.{Bits, fixed2d}

/** `cluster-osm-100k`: choose a curve for OSM-like data with the cost model,
  * learn the BMTree-SP baseline, then cluster N points by the chosen curve,
  * ZC, HC and the BMTree-SP curve and measure the test queries on each.
  */
final class ClusterOsm(seed: Long, scale: Double = 1.0) extends Bench {
  private val n = (100000 * scale).toInt
  private val (rho, depth) = (0.02, 6)
  private var cells: Array[Array[Long]] = _
  private var learn: Seq[Rect] = _
  private var test: Array[Rect] = _

  // State of the last iteration, for the checks.
  private var wc: WorkloadCost = _
  private var candidates: Seq[BMC] = Nil
  private var chosen: BMC = _
  private var indexes: Seq[(String, SpaceFillingCurve, ClusteredIndex)] = Nil
  private var counts: Map[String, Array[Long]] = Map.empty
  private var spRewardMs = 0.0

  override def setup(s: Setup): Unit = {
    cells = Calls.cells(s, "OSM", n, seed)
    // Seeds as in the system's own experiments (QueryExp): data from the
    // seed, learning queries from seed + 1, test queries from seed + 2.
    learn = s.time("Workloads.queries")(Workloads.squares("OSM", 200, 8192, Bits, seed + 1)).toSeq
    test = s.time("Workloads.queries")(Workloads.squares("OSM", 400, 8192, Bits, seed + 2))
  }

  override def warmUp(): Unit = {
    val w = new ClusterOsm(seed, scale * 0.1)
    w.setup(new Setup)
    w.iteration(new Clock(false), new Metrics)
  }

  override def iteration(c: Clock, m: Metrics): Map[String, String] = {
    indexes = Nil // the previous iteration's indexes would count in heap_mb
    val sp = c.sampledPhase("choose") {
      wc = c.span("WorkloadCost.init")(WorkloadCost(learn, 2, Bits))
      candidates = (fixed2d ++ c.span("Quilts.candidates")(Quilts.candidates(learn, 2, Bits))).distinct
      chosen = c.span("Layout.chooseCurve")(repro.spark.Layout.chooseCurve(wc, candidates))._1
      c.span("BMTree.learn")(BMTree.learn(learn, cells, 2, Bits, depth, rho, BMTree.SPReward, Calls.BlockSize))
    }
    val curves = Seq[(String, SpaceFillingCurve)](
      "chosen" -> chosen, "ZC" -> Calls.zc(2), "HC" -> new Hilbert(2, Bits), "BMTree-SP" -> sp.curve)
    indexes = c.phase("cluster")(curves.map { case (l, curve) => (l, curve, Calls.buildIndex(c, cells, curve)) })
    m("heap_mb") = c.untimed(Jvm.usedHeapMbAfterGc())
    counts = c.phase("eval")(indexes.map { case (l, _, idx) => l -> Calls.blockCounts(c, idx, test) }.toMap)

    m("chosen_block_accesses") = counts("chosen").sum.toDouble / test.length
    m("WorkloadCost.evals") = candidates.size.toDouble
    m("Quilts.candidates") = (candidates.size - fixed2d.size).toDouble
    if (c.traced) {
      val layers = c.layers
      Calls.indexLayers(m, layers, n, indexes.size, counts.values.flatten.toSeq, Calls.blocksOf(n))
      spRewardMs = sp.rewardNanos / 1e6
      m("BMTree.sp_reward_ms") = spRewardMs
      m("BMTree.nodes") = sp.nodes.toDouble
      m("BMTree.sp_sample_points") = spSamplePoints.toDouble
    }
    Map("chosen" -> chosen.toString, "BMTree-SP" -> Calls.shape(sp.curve)) ++
      counts.map { case (l, cs) => s"block_accesses.$l" -> cs.sum.toString }
  }

  /** Points BMTree-SP samples: it keeps each point with probability ρ, drawn
    * from `java.util.Random` seeded with `BMTree.learn`'s default seed.
    */
  private def spSamplePoints: Int = {
    val rng = new java.util.Random(7)
    cells.count(_ => rng.nextDouble() < rho)
  }

  override def check(g: Gate): Unit = {
    Checks.costModel(g, "cluster-osm-100k", wc, (chosen +: Checks.sample(candidates, 4, seed)).distinct)
    val qs = Checks.sample(test.toSeq, 6, seed)
    indexes.foreach { case (l, curve, idx) => Checks.indexCounts(g, s"cluster-osm-100k $l", cells, curve, idx, qs) }
  }

  override def probe(m: Metrics): Unit = {
    Checks.costProbe(m, learn, 2, candidates)
    // Same-machine base for the GC/LC-vs-SP reward ratios: GC and LC
    // rewards on the same queries and depth.
    def rewardMs(r: BMTree.Reward): Double =
      Stats.median((1 to 5).map(_ => BMTree.learn(learn, cells, 2, Bits, depth, rho, r).rewardNanos / 1e6))
    val (gc, lc) = (rewardMs(BMTree.GCReward), rewardMs(BMTree.LCReward))
    m("BMTree.gc_reward_ms") = gc
    m("BMTree.lc_reward_ms") = lc
    m("BMTree.sp_over_gc_reward") = spRewardMs / gc
    m("BMTree.sp_over_lc_reward") = spRewardMs / lc
  }
}
