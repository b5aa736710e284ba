package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Combined cost model C = Cg · Cl (Eq. 4) and its ranking power. */
class WorkloadCostSpec extends AnyFunSuite {

  test("combined cost is the product of global and local costs") {
    val qs = Workloads.randomRects(2, 10, 8, 4, 1).toSeq
    val wc = WorkloadCost(qs, 2, 4)
    val rng = new Random(2)
    for (_ <- 1 to 10) {
      val bmc = BMC.random(2, 4, rng)
      assert(wc.cost(bmc) == wc.global.cost(bmc) * wc.local.cost(bmc))
    }
  }

  test("costD agrees with cost up to double precision") {
    val qs = Workloads.randomRects(2, 5, 8, 4, 3).toSeq
    val wc = WorkloadCost(qs, 2, 4)
    val bmc = BMC.zOrder(2, 4)
    val exact = wc.cost(bmc)
    assert(math.abs(wc.costD(bmc) - exact.doubleValue) <= math.ulp(exact.doubleValue))
  }

  test("cost model prefers the obviously better curve for stretched queries") {
    // All queries span full y at a single x: x-major lexicographic order
    // stores each needed column contiguously.
    val qs = (0 until 8).map(x => Rect.of2d(x, x, 0, 7))
    val wc = WorkloadCost(qs, 2, 3)
    val good = TestRefs.fromString("XXXYYY")
    val bad = TestRefs.fromString("YYYXXX")
    assert(wc.cost(good) < wc.cost(bad))
  }

  test("exhaustive check: model-optimal curve is near block-access-optimal") {
    // d=2, l=3: 20 candidate BMCs. Build a physical simulated index for
    // each and check that the cost model's choice is within the best 25%
    // by measured block accesses (cost is an estimate, not an oracle).
    val l = 3
    val rng = new Random(5)
    val pts = Array.fill(600)(Array(rng.nextInt(8).toLong, rng.nextInt(8).toLong))
    val qs = (1 to 20).map { _ =>
      val x0 = rng.nextInt(6).toLong; val y0 = rng.nextInt(6).toLong
      Rect.of2d(x0, x0 + 2, y0, math.min(7, y0 + 4))
    }
    val wc = WorkloadCost(qs, 2, l)
    val ranked = TestRefs.allBMCs(2, l).map { bmc =>
      val measured = ClusteredIndex.build(pts, bmc, 8).avgBlockAccesses(qs)
      (bmc, wc.cost(bmc), measured)
    }
    val chosen = ranked.minBy(_._2)
    val byMeasured = ranked.sortBy(_._3)
    val rank = byMeasured.indexWhere(_._1 == chosen._1)
    assert(rank >= 0 && rank < 5,
      s"model chose ${chosen._1} ranked $rank by measurement")
  }

  test("cost model is positive for any workload and curve") {
    val qs = Workloads.randomRects(3, 6, 4, 3, 9).toSeq
    val wc = WorkloadCost(qs, 3, 3)
    val rng = new Random(10)
    for (_ <- 1 to 10) assert(wc.cost(BMC.random(3, 3, rng)) > 0)
  }
}
