package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Query workload generators (Section 6.1 settings). */
class WorkloadsSpec extends AnyFunSuite {

  test("squares have the requested edge length in both dimensions") {
    val qs = Workloads.squares("UNI", 100, 16, 8, 1)
    assert(qs.length == 100)
    assert(qs.forall(q => q.extent(0) == 16 && q.extent(1) == 16))
  }

  test("squares stay within the grid") {
    val k = 1L << 8
    val qs = Workloads.squares("SKEW", 500, 32, 8, 2)
    assert(qs.forall(q => q.lo.forall(_ >= 0) && q.hi.forall(_ < k)))
  }

  test("workloads are deterministic in the seed") {
    val a = Workloads.squares("OSM", 50, 8, 10, 3)
    val b = Workloads.squares("OSM", 50, 8, 10, 3)
    assert(a.zip(b).forall { case (x, y) => x == y })
  }

  test("query centers follow the data distribution") {
    // SKEW queries should cluster near the origin.
    // P(coord < 0.1) under SKEW is 0.1^(1/4) ≈ 0.56 per axis → ≈ 32% of
    // centers in the corner decile; uniform would put ~1% there.
    val qs = Workloads.squares("SKEW", 500, 4, 10, 4)
    val nearOrigin = qs.count(q => q.lo(0) < 102 && q.lo(1) < 102)
    assert(nearOrigin > 100, s"$nearOrigin near origin")
    val uni = Workloads.squares("UNI", 500, 4, 10, 4)
    val uniNear = uni.count(q => q.lo(0) < 102 && q.lo(1) < 102)
    assert(nearOrigin > uniNear * 5)
  }

  test("aspect-ratio queries preserve area approximately") {
    for (r <- Seq(16.0, 4.0, 1.0, 0.25, 0.0625)) {
      val qs = Workloads.withAspectRatio("UNI", 20, 64, r, 10, 5)
      val areas = qs.map(_.volume.toDouble)
      assert(areas.forall(a => a > 64.0 * 64 * 0.8 && a < 64.0 * 64 * 1.3), s"ratio $r")
      val q = qs.head
      val measured = q.extent(0).toDouble / q.extent(1)
      assert(math.abs(math.log(measured / r)) < 0.3, s"ratio $r got $measured")
    }
  }

  test("randomRects respect dimension, bounds and max edge") {
    val qs = Workloads.randomRects(3, 200, 8, 6, 6)
    assert(qs.length == 200)
    assert(qs.forall(_.d == 3))
    assert(qs.forall(q => (0 until 3).forall(i =>
      q.lo(i) >= 0 && q.hi(i) < 64 && q.extent(i) <= 8)))
  }

  test("oversized queries are rejected") {
    intercept[IllegalArgumentException](Workloads.squares("UNI", 10, 1L << 9, 8, 1))
  }

  test("rectangles produce the requested width and height") {
    val qs = Workloads.rectangles("NYC", 50, 32, 8, 10, 7)
    assert(qs.forall(q => q.extent(0) == 32 && q.extent(1) == 8))
  }
}
