package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Hilbert curve substrate (the HC baseline). */
class HilbertSpec extends AnyFunSuite {

  private def neighbors(a: Array[Long], b: Array[Long]): Boolean =
    a.indices.map(i => math.abs(a(i) - b(i))).sum == 1

  for (d <- 2 to 3; l <- 1 to 4 if math.pow((1L << l).toDouble, d) <= 5000) {
    test(s"bijectivity over the full d=$d, l=$l grid") {
      val hc = new Hilbert(d, l)
      val k = 1L << l
      val full = Rect(Array.fill(d)(0L), Array.fill(d)(k - 1))
      val values = Rect.cells(full).map(hc.value).toVector
      assert(values.distinct.size == values.size)
      assert(values.min == 0L)
      assert(values.max == math.pow(k.toDouble, d).toLong - 1)
    }
  }

  for (d <- 2 to 3; l <- 2 to 3) {
    test(s"adjacency: consecutive curve values are grid neighbours (d=$d, l=$l)") {
      val hc = new Hilbert(d, l)
      val k = 1L << l
      val total = math.pow(k.toDouble, d).toLong
      val byValue = new Array[Array[Long]](total.toInt)
      val full = Rect(Array.fill(d)(0L), Array.fill(d)(k - 1))
      Rect.cells(full).foreach(p => byValue(hc.value(p).toInt) = p)
      for (v <- 1 until total.toInt)
        assert(neighbors(byValue(v - 1), byValue(v)),
          s"cells at values ${v - 1}, $v are not adjacent")
    }
  }

  test("the 2x2 Hilbert curve is the U shape") {
    val hc = new Hilbert(2, 1)
    val order = Seq((0L, 0L), (0L, 1L), (1L, 1L), (1L, 0L))
    // One of the two U orientations: values must be 0..3 along a U path.
    val vals = order.map { case (x, y) => hc.value(Array(x, y)) }
    assert(vals.toSet == Set(0L, 1L, 2L, 3L))
    // First and last cells of the curve differ in exactly one coordinate
    // step (property of the open U).
    val cells = (0 to 3).map(v => order(vals.indexOf(v.toLong)))
    assert(math.abs(cells.head._1 - cells.last._1) + math.abs(cells.head._2 - cells.last._2) == 1)
  }

  test("Hilbert locality: fewer sections than Z-order for centered queries") {
    // HC famously has no long jumps; on average it produces no more query
    // sections than ZC. Check on a batch of random queries.
    val l = 5
    val hc = new Hilbert(2, l)
    val zc = BMC.zOrder(2, l)
    val rng = new java.util.Random(3)
    var hcTotal = 0L
    var zcTotal = 0L
    for (_ <- 1 to 30) {
      val x0 = rng.nextInt(24).toLong; val y0 = rng.nextInt(24).toLong
      val q = Rect.of2d(x0, x0 + 7, y0, y0 + 7)
      hcTotal += LocalCost.sectionsByScan(q, hc)
      zcTotal += LocalCost.sectionsByScan(q, zc)
    }
    assert(hcTotal <= zcTotal)
  }

  test("invalid shapes are rejected") {
    intercept[IllegalArgumentException](new Hilbert(2, 32))
    intercept[IllegalArgumentException](new Hilbert(0, 4))
  }

  test("value rejects wrong-arity points") {
    intercept[IllegalArgumentException](new Hilbert(2, 4).value(Array(1L)))
  }
}
