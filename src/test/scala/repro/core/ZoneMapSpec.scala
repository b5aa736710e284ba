package repro.core

import java.util.Random
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Min/max zone maps: the box-vs-query relation against every cell of the box. */
class ZoneMapSpec extends AnyFunSuite {

  private def check(p: Prop, minTests: Int = 200): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), p)
    assert(res.passed, res.status.toString)
  }

  /** A bound near the query's edge in one dimension: one cell outside it,
    * on it, or anywhere on the grid [0, k).
    */
  private def near(q: Rect, i: Int, k: Long, rng: Random): Long = rng.nextInt(5) match {
    case 0 => q.lo(i) - 1
    case 1 => q.lo(i)
    case 2 => q.hi(i)
    case 3 => q.hi(i) + 1
    case _ => rng.nextInt(k.toInt).toLong
  }

  test("property: relate and touched equal the cells of each box, d = 1, 2, 3") {
    val gen = for { d <- Gen.oneOf(1, 2, 3); zones <- Gen.choose(0, 12); seed <- Gen.long } yield (d, zones, seed)
    check(Prop.forAll(gen) { case (d, zones, seed) =>
      val rng = new Random(seed)
      val k = 6L
      val q = {
        val a = Array.fill(d)(rng.nextInt(k.toInt).toLong)
        val b = Array.fill(d)(rng.nextInt(k.toInt).toLong)
        Rect(Array.tabulate(d)(i => math.min(a(i), b(i))), Array.tabulate(d)(i => math.max(a(i), b(i))))
      }
      // Boxes with edges on, next to or away from the query's, a third of
      // the bounds degenerate; each is included as two ranges whose hull it is.
      val boxes = Array.fill(zones) {
        val bounds = Array.tabulate(d) { i =>
          val a = near(q, i, k, rng)
          val b = if (rng.nextInt(3) == 0) a else near(q, i, k, rng)
          (math.min(a, b), math.max(a, b))
        }
        Rect(bounds.map(_._1), bounds.map(_._2))
      }
      val builder = ZoneMap.builder(zones, d)
      for (z <- 0 until zones; i <- 0 until d) {
        val (lo, hi) = (boxes(z).lo(i), boxes(z).hi(i))
        val mid = lo + rng.nextInt((hi - lo + 1).toInt)
        builder.include(z, i, mid, hi)
        builder.include(z, i, lo, mid)
      }
      val map = builder.result()
      val relations = (0 until zones).map { z =>
        val cells = Rect.cells(boxes(z)).toSeq
        val hits = cells.count(q.contains)
        val expected = if (hits == 0) ZoneMap.Disjoint else if (hits == cells.size) ZoneMap.Inside else ZoneMap.Overlaps
        map.relate(q, z) == expected
      }
      map.size == zones && relations.forall(identity) &&
        map.touched(q) == boxes.count(b => Rect.cells(b).exists(q.contains))
    })
  }

  test("result refuses a zone that was never included") {
    val builder = ZoneMap.builder(3, 2)
    for (dim <- 0 until 2) { builder.include(0, dim, 1, 4); builder.include(2, dim, 0, 0) }
    builder.include(1, 0, 2, 3)
    val e = intercept[IllegalArgumentException](builder.result())
    assert(e.getMessage.contains("zone 1 was never included in dimension 1"), e.getMessage)
    builder.include(1, 1, 5, 5)
    assert(builder.result().touched(Rect.of2d(2, 2, 5, 5)) == 1)
    assert(ZoneMap.builder(0, 2).result().touched(Rect.of2d(0, 9, 0, 9)) == 0)
  }

  test("include and relate reject ranges, zones and queries that do not fit") {
    val builder = ZoneMap.builder(2, 2)
    intercept[IllegalArgumentException](builder.include(0, 0, 3, 2))
    intercept[IllegalArgumentException](builder.include(2, 0, 0, 1))
    intercept[IllegalArgumentException](builder.include(0, 2, 0, 1))
    for (z <- 0 until 2; dim <- 0 until 2) builder.include(z, dim, 0, 1)
    intercept[IllegalArgumentException](builder.result().relate(Rect(Array(0L), Array(1L)), 0))
  }
}
