package repro.perfbench

import scala.collection.mutable
import repro.core._
import repro.spark.Layout
import Calls.Bits

/** `score-d3`: d=3, ℓ=16, 1,024 random boxes with extents up to 4,096
  * cells and no data. Each iteration runs the GC and LC inits, then scores a
  * candidate pool built during set-up (random BMCs plus all their adjacent
  * swaps) through `Layout.chooseCurve`.
  */
final class ScoreD3(seed: Long, scale: Double = 1.0) extends Bench {
  private val d = 3
  private val randomCurves = math.max(1, (256 * scale).toInt)
  private var queries: Seq[Rect] = _
  private var pool: Vector[BMC] = _

  private var wc: WorkloadCost = _
  private var chosen: BMC = _

  override def setup(s: Setup): Unit = {
    queries = s.time("Workloads.queries")(Workloads.randomRects(d, 1024, 4096, Bits, seed)).toSeq
    pool = s.time("BMC.candidate_pool") {
      val rng = new java.util.Random(seed)
      (1 to randomCurves).flatMap { _ =>
        val b = BMC.random(d, Bits, rng)
        b +: (0 until b.length - 1).map(b.swap)
      }.distinct.toVector
    }
  }

  override def warmUp(): Unit = {
    val w = new ScoreD3(seed, 0.1)
    w.setup(new Setup)
    (1 to 20).foreach(_ => w.iteration(new Clock(false), new Metrics))
  }

  override def iteration(c: Clock, m: Metrics): Map[String, String] = {
    val scoringNs = mutable.ArrayBuffer.empty[Double]
    val cost = c.sampledPhase("choose") {
      wc = c.span("WorkloadCost.init")(new WorkloadCost(queries, d, Array.fill(d)(Bits)))
      val t0 = System.nanoTime()
      val (best, cost) = c.span("Layout.chooseCurve")(Layout.chooseCurve(wc, pool))
      scoringNs += (System.nanoTime() - t0).toDouble
      chosen = best
      cost
    }
    // Over the same runs of the choose step as choose_s.
    m("evals_per_s") = pool.size / (Stats.median(scoringNs.toSeq) / 1e9)
    m("heap_mb") = c.untimed(Jvm.usedHeapMbAfterGc())
    m("WorkloadCost.evals") = pool.size.toDouble
    if (c.traced) {
      val layers = c.layers
      m("Layout.chooseCurve_ms") = Stats.ms(layers("Layout.chooseCurve").totalNs)
      m("WorkloadCost.init_ms") = Stats.ms(layers("WorkloadCost.init").totalNs)
    }
    Map("chosen" -> chosen.toString, "chosen_cost" -> cost.toString)
  }

  override def check(g: Gate): Unit = {
    Checks.costModel(g, "score-d3", wc, (chosen +: Checks.sample(pool, 7, seed)).distinct)
    // chooseCurve returns the minimum: no sampled candidate costs less.
    Checks.sample(pool, 64, seed + 1).foreach { s =>
      g.check(s"score-d3: chosen costs no more than $s")(wc.cost(chosen) <= wc.cost(s))
    }
  }

  override def probe(m: Metrics): Unit =
    Checks.costProbe(m, queries, d, Checks.sample(pool, 64, seed))
}
