package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Synthetic dataset generators (dataset substitutes, DESIGN.md § 4). */
class SpatialGenSpec extends AnyFunSuite {

  for (dist <- SpatialGen.Distributions) {
    test(s"$dist: points lie in [0,1)² and are deterministic in the seed") {
      val a = SpatialGen.points(dist, 2000, 7)
      val b = SpatialGen.points(dist, 2000, 7)
      assert(a.length == 2000)
      assert(a.forall(p => p.length == 2 && p.forall(c => c >= 0.0 && c < 1.0)))
      assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
      val c = SpatialGen.points(dist, 2000, 8)
      assert(a.zip(c).exists { case (x, y) => !x.sameElements(y) })
    }
  }

  test("unknown distribution names are rejected") {
    intercept[IllegalArgumentException](SpatialGen.points("NOPE", 10, 1))
  }

  test("quantize maps [0,1) onto [0, 2^bits) monotonically") {
    assert(SpatialGen.quantize(0.0, 4) == 0)
    assert(SpatialGen.quantize(0.999999, 4) == 15)
    assert(SpatialGen.quantize(0.5, 4) == 8)
    val xs = Seq(0.1, 0.2, 0.5, 0.7, 0.9)
    val qs = xs.map(SpatialGen.quantize(_, 6))
    assert(qs == qs.sorted)
  }

  test("quantizeAll preserves cardinality and grid bounds") {
    val pts = SpatialGen.points("OSM", 1000, 3)
    val cells = SpatialGen.quantizeAll(pts, 8)
    assert(cells.length == 1000)
    assert(cells.forall(_.forall(c => c >= 0 && c < 256)))
  }

  test("SKEW concentrates more mass near the origin than UNI") {
    val uni = SpatialGen.points("UNI", 5000, 1)
    val skw = SpatialGen.points("SKEW", 5000, 1)
    def nearOrigin(p: Array[Array[Double]]) = p.count(q => q(0) < 0.1 && q(1) < 0.1)
    assert(nearOrigin(skw) > nearOrigin(uni) * 5)
  }

  test("OSM-like data is clustered: top cells hold disproportionate mass") {
    val pts = SpatialGen.quantizeAll(SpatialGen.points("OSM", 20000, 2), 6)
    val byCell = pts.groupBy(p => (p(0), p(1))).view.mapValues(_.length).values.toSeq
    val top = byCell.sorted.reverse.take(byCell.size / 20).sum
    // Top 5% of occupied cells hold > 20% of points (uniform would be ~5%).
    assert(top.toDouble / pts.length > 0.2)
  }

  test("NYC-like data has a dominant elongated cluster") {
    val pts = SpatialGen.points("NYC", 20000, 2)
    val inBand = pts.count(p => math.abs((p(1) - 0.55) - math.tan(0.5) * (p(0) - 0.45)) < 0.1)
    assert(inBand.toDouble / pts.length > 0.5)
  }
}
