package repro.learn

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.hashing.MurmurHash3

/** BMTree learner with its three rewards (Section 6.3 substrate). */
class BMTreeSpec extends AnyFunSuite {

  private val bits = 5
  private def data(dist: String = "OSM", n: Int = 3000, seed: Long = 1) =
    SpatialGen.quantizeAll(SpatialGen.points(dist, n, seed), bits)
  private def queries(dist: String = "OSM", n: Int = 30, seed: Long = 2) =
    Workloads.squares(dist, n, 4, bits, seed).toSeq

  for (reward <- Seq(BMTree.SPReward, BMTree.GCReward, BMTree.LCReward)) {
    test(s"${reward.name}: learned curve is a bijection over the grid") {
      val res = BMTree.learn(queries(), data(), 2, bits, h = 3, rho = 0.1, reward)
      val values = Rect.cells(Rect.of2d(0, 31, 0, 31)).map(res.curve.value).toSeq
      assert(values.distinct.size == 1024)
      assert(values.min == 0L && values.max == 1023L)
    }
  }

  // A fixed d=2, ℓ=4, h=3 run per reward: an ordered hash of the learned
  // curve's values over the whole grid, and the node count. SP samples
  // about half of the 3,000 points.
  for ((reward, hash, nodes) <- Seq(
      (BMTree.SPReward, -1102497649, 7),
      (BMTree.GCReward, -649113791, 7),
      (BMTree.LCReward, 531740375, 7))) {
    test(s"${reward.name}: a fixed run reproduces its pinned curve and node count") {
      val res = BMTree.learn(Workloads.squares("OSM", 30, 3, 4, 2).toSeq,
        SpatialGen.quantizeAll(SpatialGen.points("OSM", 3000, 1), 4), 2, 4, h = 3, rho = 0.5, reward)
      val values = Rect.cells(Rect.of2d(0, 15, 0, 15)).map(res.curve.value).toSeq
      assert(MurmurHash3.orderedHash(values) == hash)
      assert(res.nodes == nodes)
    }
  }

  test("depth never exceeds h") {
    val res = BMTree.learn(queries(), data(), 2, bits, h = 4, rho = 0.1, BMTree.LCReward)
    assert(res.curve.depth <= 4)
  }

  test("h = 0 yields the default Z-order completion") {
    val res = BMTree.learn(queries(), data(), 2, bits, h = 0, rho = 0.1, BMTree.GCReward)
    val zc = BMC.zOrder(2, bits)
    Rect.cells(Rect.of2d(0, 31, 0, 31)).foreach { p =>
      assert(res.curve.value(p) == zc.value(p))
    }
  }

  test("invalid depths are rejected") {
    intercept[IllegalArgumentException](
      BMTree.learn(queries(), data(), 2, bits, h = 2 * bits, rho = 0.1, BMTree.GCReward))
  }

  test("reward time is measured and bounded by total time") {
    val res = BMTree.learn(queries(), data(), 2, bits, h = 4, rho = 0.5, BMTree.SPReward)
    assert(res.rewardNanos > 0)
    assert(res.rewardNanos <= res.totalNanos)
  }

  test("SP reward time grows with the sample size (Fig. 11 mechanism)") {
    val big = data(n = 20000)
    val qs = queries(n = 60)
    val small = BMTree.learn(qs, big, 2, bits, 4, rho = 0.01, BMTree.SPReward)
    val large = BMTree.learn(qs, big, 2, bits, 4, rho = 0.5, BMTree.SPReward)
    assert(large.rewardNanos > small.rewardNanos)
  }

  test("GC/LC rewards ignore the dataset (constant in N, Fig. 11 claim)") {
    val qs = queries()
    val a = BMTree.learn(qs, data(n = 100), 2, bits, 4, 0.1, BMTree.LCReward)
    val b = BMTree.learn(qs, data(n = 30000), 2, bits, 4, 0.1, BMTree.LCReward)
    // Identical trees: the learned structure depends only on the queries.
    val cells = Rect.cells(Rect.of2d(0, 31, 0, 31)).toSeq
    assert(cells.forall(p => a.curve.value(p) == b.curve.value(p)))
  }

  test("learned curves serve the workload no worse than the worst baseline") {
    val dist = "SKEW"
    val d = data(dist, 5000)
    val qs = queries(dist, 40)
    val test = Workloads.squares(dist, 60, 4, bits, 9).toSeq
    val learned = BMTree.learn(qs, d, 2, bits, 4, 0.1, BMTree.LCReward).curve
    val lexBad = BMC.lexicographic(2, bits, 1)
    val b = 32
    val la = ClusteredIndex.build(d, learned, b).avgBlockAccesses(test)
    val worst = ClusteredIndex.build(d, lexBad, b).avgBlockAccesses(test)
    assert(la <= worst * 1.05, s"learned=$la worst=$worst")
  }

  test("node counts are reported") {
    val res = BMTree.learn(queries(), data(), 2, bits, h = 3, rho = 0.1, BMTree.GCReward)
    assert(res.nodes >= 1 && res.nodes <= (1 << 4) - 1)
  }

  test("query splitting at a node partitions correctly (structure check)") {
    // One query exactly covering the x < 16 half: the learned tree must
    // still be a bijection and give that half contiguous values if split
    // on x first.
    val qs = Seq(Rect.of2d(0, 15, 0, 31))
    val res = BMTree.learn(qs, data(), 2, bits, 1, 0.1, BMTree.LCReward)
    val values = Rect.cells(Rect.of2d(0, 31, 0, 31)).map(res.curve.value).toSeq
    assert(values.distinct.size == 1024)
  }

  test("deterministic in the seed (SP sampling)") {
    val d = data()
    val qs = queries()
    val a = BMTree.learn(qs, d, 2, bits, 3, 0.2, BMTree.SPReward, seed = 5)
    val b = BMTree.learn(qs, d, 2, bits, 3, 0.2, BMTree.SPReward, seed = 5)
    val cells = Rect.cells(Rect.of2d(0, 31, 0, 31)).toSeq
    assert(cells.forall(p => a.curve.value(p) == b.curve.value(p)))
  }
}
