package repro.learn

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** QUILTS baseline (query-shape-driven curve design). */
class QuiltsSpec extends AnyFunSuite {

  test("candidates are valid uniform BMCs") {
    val qs = Workloads.randomRects(2, 20, 16, 5, 1).toSeq
    val cands = Quilts.candidates(qs, 2, 5)
    assert(cands.nonEmpty)
    assert(cands.forall(c => c.d == 2 && c.bitsPerDim.toSeq == Seq(5, 5)))
  }

  test("candidates include the deterministic fallbacks") {
    val qs = Workloads.randomRects(2, 10, 8, 4, 2).toSeq
    val cands = Quilts.candidates(qs, 2, 4)
    assert(cands.contains(BMC.zOrder(2, 4)))
    assert(cands.contains(BMC.lexicographic(2, 4, 0)))
    assert(cands.contains(BMC.lexicographic(2, 4, 1)))
  }

  test("candidates are distinct") {
    val qs = Workloads.randomRects(2, 10, 8, 4, 3).toSeq
    val cands = Quilts.candidates(qs, 2, 4)
    assert(cands.distinct.size == cands.size)
  }

  test("design picks the minimum-cost candidate") {
    val qs = Workloads.randomRects(2, 20, 8, 4, 4).toSeq
    val wc = WorkloadCost(qs, 2, 4)
    val (best, cost) = Quilts.design(wc, 4)
    assert(cost == wc.cost(best))
    assert(Quilts.candidates(qs, 2, 4).forall(c => wc.cost(c) >= cost))
  }

  test("design never loses to plain Z-order under the cost model") {
    for (dist <- SpatialGen.Distributions) {
      val qs = Workloads.squares(dist, 40, 32, 8, 5).toSeq
      val wc = WorkloadCost(qs, 2, 8)
      val (_, cost) = Quilts.design(wc, 8)
      assert(cost <= wc.cost(BMC.zOrder(2, 8)), dist)
    }
  }

  test("stretched workloads produce shape-adapted candidates") {
    // Queries 16 wide × 1 tall: x must vary fastest inside a query, so
    // the x-major lexicographic curve (y varies fastest) is pathological.
    val qs = Workloads.rectangles("UNI", 30, 16, 1, 6, 6).toSeq
    val wc = WorkloadCost(qs, 2, 6)
    val (best, _) = Quilts.design(wc, 6)
    assert(wc.cost(best) < wc.cost(BMC.lexicographic(2, 6, 0)))
  }

  test("design is deterministic") {
    val qs = Workloads.squares("NYC", 25, 16, 7, 8).toSeq
    val wc = WorkloadCost(qs, 2, 7)
    assert(Quilts.design(wc, 7) == Quilts.design(wc, 7))
  }

  test("3-dimensional candidate generation works") {
    val qs = Workloads.randomRects(3, 15, 4, 3, 9).toSeq
    val cands = Quilts.candidates(qs, 3, 3)
    assert(cands.forall(c => c.d == 3 && c.bitsPerDim.forall(_ == 3)))
    val wc = WorkloadCost(qs, 3, 3)
    val (best, cost) = Quilts.design(wc, 3)
    assert(cost == wc.cost(best))
  }
}
