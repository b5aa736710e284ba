package repro.learn

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.hashing.MurmurHash3

/** LBMC reinforcement-learning curve search (Section 5, Algorithm 3). */
class LBMCSpec extends AnyFunSuite {

  private def workload(seed: Long, bits: Int, n: Int = 24): WorkloadCost = {
    // Stretched queries: tall thin rectangles make the optimum non-trivial.
    val rng = new java.util.Random(seed)
    val k = 1L << bits
    val qs = Seq.fill(n) {
      val x0 = rng.nextInt(k.toInt - 1).toLong
      val y0 = rng.nextInt(k.toInt / 2).toLong
      Rect.of2d(x0, math.min(k - 1, x0 + 1), y0, math.min(k - 1, y0 + k / 2))
    }
    WorkloadCost(qs, 2, bits)
  }

  test("state encoding is one-hot over (rank, dimension)") {
    val wc = workload(1, 3)
    val lbmc = new LBMC(wc)
    val sigma = TestRefs.fromString("XXYYXY")
    val x = lbmc.encode(sigma)
    assert(x.length == 12)
    assert(x.count(_ == 1.0) == 6)
    // Rank 0 is Y (last letter): position 0*2+1 set.
    assert(x(1) == 1.0 && x(0) == 0.0)
  }

  test("learning finds the exhaustive optimum on the d=2, l=3 space") {
    val wc = workload(2, 3)
    val exhaustive = TestRefs.allBMCs(2, 3).map(wc.cost).min
    val res = new LBMC(wc, LBMCConfig(episodes = 20, steps = 20, seed = 1))
      .learn(BMC.zOrder(2, 3))
    assert(res.bestCost == exhaustive,
      s"LBMC found ${res.bestCost}, optimum is $exhaustive")
  }

  test("learning approaches the exhaustive optimum on the d=2, l=4 space") {
    val wc = workload(3, 4)
    val exhaustive = TestRefs.allBMCs(2, 4).map(wc.cost).min
    val res = new LBMC(wc, LBMCConfig(episodes = 25, steps = 30, seed = 2))
      .learn(BMC.zOrder(2, 4))
    assert(res.bestCost.doubleValue <= exhaustive.doubleValue * 1.1,
      s"LBMC found ${res.bestCost}, optimum is $exhaustive")
  }

  test("best curve never costs more than the initial curve") {
    val wc = workload(4, 4)
    val init = BMC.lexicographic(2, 4, 0)
    val res = new LBMC(wc, LBMCConfig(episodes = 5, steps = 10, seed = 3)).learn(init)
    assert(res.bestCost <= wc.cost(init))
  }

  test("cost trace is normalized to the initial cost (Fig. 8e)") {
    val wc = workload(5, 3)
    val res = new LBMC(wc, LBMCConfig(episodes = 3, steps = 8, seed = 4))
      .learn(BMC.zOrder(2, 3))
    assert(res.costTrace.size == 3 * 8)
    assert(res.costTrace.forall(_ > 0))
    assert(res.costTrace.min <= 1.0 + 1e-9)
  }

  test("the learned result is a valid BMC of the right shape") {
    val wc = workload(6, 4)
    val res = new LBMC(wc, LBMCConfig(episodes = 3, steps = 10, seed = 5))
      .learn(BMC.zOrder(2, 4))
    assert(res.best.d == 2)
    assert(res.best.bitsPerDim.toSeq == Seq(4, 4))
  }

  test("learning is deterministic in the config seed") {
    val wc = workload(7, 3)
    val cfg = LBMCConfig(episodes = 4, steps = 10, seed = 9)
    val a = new LBMC(wc, cfg).learn(BMC.zOrder(2, 3))
    val b = new LBMC(wc, cfg).learn(BMC.zOrder(2, 3))
    assert(a.best == b.best)
    assert(a.costTrace == b.costTrace)
  }

  test("reward time is measured and bounded by total time") {
    val wc = workload(8, 3)
    val res = new LBMC(wc, LBMCConfig(episodes = 2, steps = 5, seed = 6))
      .learn(BMC.zOrder(2, 3))
    assert(res.rewardNanos > 0)
    assert(res.rewardNanos <= res.totalNanos)
    assert(res.rewardNanos + res.networkNanos <= res.totalNanos)
  }

  test("a fixed run reproduces its pinned best curve and cost trace") {
    // 10 × 40 steps: training from step 32 on, and eight target syncs.
    // The pinned values come from the row-major network that called the
    // target network for every sampled transition.
    val wc = workload(10, 6)
    val res = new LBMC(wc, LBMCConfig(episodes = 10, steps = 40)).learn(BMC.zOrder(2, 6))
    assert(res.best.toString == "XXYYYXXXXYYY")
    assert(res.bestCost == BigInt(2264600))
    assert(res.costTrace.size == 400)
    assert(MurmurHash3.orderedHash(res.costTrace.map(java.lang.Double.doubleToRawLongBits)) == -185366989)
    assert(res.networkNanos > 0)
    assert(res.rewardNanos + res.networkNanos <= res.totalNanos)
  }

  test("a mismatched initial BMC is rejected") {
    val wc = workload(9, 3)
    intercept[IllegalArgumentException](new LBMC(wc).learn(BMC.zOrder(2, 4)))
  }

  test("a cost model with fewer than two dimensions owning bits is rejected") {
    // Every swap of such a curve is a no-op, so LBMC would have no action to take.
    val oneDim = new WorkloadCost(Seq(Rect(Array(2L), Array(9L))), 1, Array(4))
    val flat = new WorkloadCost(Seq(Rect.of2d(2, 9, 0, 0)), 2, Array(4, 0))
    for ((wc, shape) <- Seq(oneDim -> "(4)", flat -> "(4, 0)")) {
      val e = intercept[IllegalArgumentException](new LBMC(wc))
      assert(e.getMessage.contains(s"ℓ = $shape"), e.getMessage)
    }
  }

  test("LBMC beats ZC for a workload that ZC serves poorly") {
    // Thin full-height column queries: the optimum keeps y bits low.
    val bits = 4
    val k = 1L << bits
    val qs = (0 until k.toInt).map(x => Rect.of2d(x, x, 0, k - 1))
    val wc = WorkloadCost(qs, 2, bits)
    val res = new LBMC(wc, LBMCConfig(episodes = 20, steps = 30, seed = 7))
      .learn(BMC.zOrder(2, bits))
    assert(res.bestCost < wc.cost(BMC.zOrder(2, bits)))
  }
}
