package repro.perfbench

import repro.core._
import repro.learn.{BMTree, LBMC, LBMCConfig, LBMCResult, Quilts}
import Calls.Bits
import Learn4x2._

/** `learn-4x2`: {UNI, SKEW, OSM, NYC} × {8192² squares, equal-area 16:1
  * rectangles}. Each case builds the cost model on 200 queries, runs LBMC
  * (default configuration, from ZC), QUILTS, BMTree-GC and BMTree-LC at h=6,
  * then clusters by LBMC's curve and measures 400 test queries.
  */
final class Learn4x2(seed: Long, scale: Double = 1.0) extends Bench {
  private val n = (100000 * scale).toInt
  private val depth = 6

  private var cases: Seq[Case] = Nil
  private var last: Seq[Outcome] = Nil

  override def setup(s: Setup): Unit = {
    // The warm-up copy runs OSM only, with both query shapes.
    val dists = if (scale < 1.0) Seq("OSM") else SpatialGen.Distributions
    cases = dists.flatMap { dist =>
      val cells = Calls.cells(s, dist, n, seed)
      // Learning queries from seed + 1, test queries from seed + 2.
      val shapes = s.time("Workloads.queries")(Seq(
        "square" -> ((k: Int, sd: Long) => Workloads.squares(dist, k, 8192, Bits, sd)),
        "16:1" -> ((k: Int, sd: Long) => Workloads.withAspectRatio(dist, k, 8192, 16.0, Bits, sd))
      ).map { case (shape, gen) => (shape, gen(200, seed + 1), gen(400, seed + 2)) })
      shapes.map { case (shape, learn, test) => Case(s"$dist $shape", cells, learn.toSeq, test) }
    }
  }

  override def warmUp(): Unit = {
    val w = new Learn4x2(seed, 0.1)
    w.setup(new Setup)
    w.iteration(new Clock(false), new Metrics)
  }

  override def iteration(c: Clock, m: Metrics): Map[String, String] = {
    last = Nil // the previous iteration's indexes would count in heap_mb
    val learned = c.sampledPhase("choose")(cases.map { k =>
      val wc = c.span("WorkloadCost.init")(WorkloadCost(k.learn, 2, Bits))
      val lbmc = c.span("LBMC.learn")(new LBMC(wc, LBMCConfig()).learn(Calls.zc(2)))
      val quilts = c.span("Quilts.design")(Quilts.design(wc, Bits))._1
      val gc = c.span("BMTree.learn")(BMTree.learn(k.learn, k.cells, 2, Bits, depth, 0.0, BMTree.GCReward))
      val lc = c.span("BMTree.learn")(BMTree.learn(k.learn, k.cells, 2, Bits, depth, 0.0, BMTree.LCReward))
      Learned(k, wc, lbmc, quilts, gc, lc)
    })
    val indexes = c.phase("cluster")(learned.map(l => Calls.buildIndex(c, l.k.cells, l.lbmc.best)))
    m("heap_mb") = c.untimed(Jvm.usedHeapMbAfterGc())
    last = c.phase("eval")(learned.zip(indexes).map { case (l, idx) => Outcome(l, idx, Calls.blockCounts(c, idx, l.k.test)) })

    // Mean over the cases of each case's mean block accesses per test query.
    m("chosen_block_accesses") = Stats.mean(last.map(o => o.counts.sum.toDouble / o.counts.length))
    val quiltsCands = cases.map(k => Quilts.candidates(k.learn, 2, Bits).size).sum
    m("Quilts.candidates") = quiltsCands.toDouble
    // LBMC scores its start, every step and its best; QUILTS every candidate.
    m("WorkloadCost.evals") = (learned.map(_.lbmc.costTrace.size + 2).sum + quiltsCands).toDouble
    if (c.traced) {
      val layers = c.layers
      Calls.indexLayers(m, layers, n, indexes.size, last.flatMap(_.counts), Calls.blocksOf(n))
      Calls.lbmcLayers(m, learned.map(_.lbmc))
      m("BMTree.gc_reward_ms") = learned.map(_.gc.rewardNanos).sum / 1e6
      m("BMTree.lc_reward_ms") = learned.map(_.lc.rewardNanos).sum / 1e6
      m("BMTree.nodes") = learned.map(l => l.gc.nodes + l.lc.nodes).sum.toDouble
      m("Quilts.design_ms") = Stats.ms(layers("Quilts.design").totalNs)
    }
    last.flatMap { case Outcome(l, _, counts) =>
      val k = l.k.label
      Seq(s"$k LBMC" -> l.lbmc.best.toString, s"$k QUILTS" -> l.quilts.toString,
          s"$k BMTree-GC" -> Calls.shape(l.gc.curve), s"$k BMTree-LC" -> Calls.shape(l.lc.curve),
          s"$k block_accesses" -> counts.sum.toString)
    }.toMap
  }

  override def check(g: Gate): Unit = last.foreach { case Outcome(l, idx, _) =>
    val k = l.k.label
    Checks.costModel(g, k, l.wc, Seq(l.lbmc.best, l.quilts, Calls.zc(2)).distinct)
    Checks.indexCounts(g, s"$k LBMC index", l.k.cells, l.lbmc.best, idx, Checks.sample(l.k.test.toSeq, 4, seed))
  }

  override def probe(m: Metrics): Unit = {
    val l = last.map(_.l).find(_.k.label == "OSM square").getOrElse(last.head.l)
    Checks.costProbe(m, l.k.learn, 2, Quilts.candidates(l.k.learn, 2, Bits) :+ l.lbmc.best)
  }
}

object Learn4x2 {
  private final case class Case(label: String, cells: Array[Array[Long]], learn: Seq[Rect], test: Array[Rect])
  private final case class Learned(k: Case, wc: WorkloadCost, lbmc: LBMCResult, quilts: BMC,
                                   gc: BMTree.Result, lc: BMTree.Result)
  private final case class Outcome(l: Learned, idx: ClusteredIndex, counts: Array[Long])
}
