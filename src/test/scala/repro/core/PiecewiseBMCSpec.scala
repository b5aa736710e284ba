package repro.core

import org.scalatest.funsuite.AnyFunSuite
import PiecewiseBMC._

/** Piecewise BMC (the BMTree's curve family). */
class PiecewiseBMCSpec extends AnyFunSuite {

  test("a single-leaf piecewise curve equals its BMC") {
    val bmc = BMC.zOrder(2, 3)
    val pw = new PiecewiseBMC(Tail(bmc), 2, 3)
    Rect.cells(Rect.of2d(0, 7, 0, 7)).foreach { p =>
      assert(pw.value(p) == bmc.value(p), p.mkString(","))
    }
  }

  test("interleave completion covers remaining bits round-robin") {
    assert(interleave(Array(2, 2)).toString == "YXYX")
    assert(interleave(Array(3, 1)).toString == "XXYX")
    assert(interleave(Array(0, 2)).toString == "YY")
  }

  test("a depth-1 split on x separates the two grid halves") {
    val l = 3
    val tail = Tail(interleave(Array(l - 1, l)))
    val pw = new PiecewiseBMC(Split(0, tail, tail), 2, l)
    // All cells with x < 4 come before all cells with x >= 4.
    val lows = Rect.cells(Rect.of2d(0, 3, 0, 7)).map(pw.value).toSeq
    val highs = Rect.cells(Rect.of2d(4, 7, 0, 7)).map(pw.value).toSeq
    assert(lows.max < highs.min)
  }

  test("different sub-curves per half still form a bijection") {
    val l = 2
    val zero = Tail(BMC(Seq(0, 1, 1), 2)) // rem bits: x 1, y 2
    val one = Tail(BMC(Seq(1, 1, 0), 2))
    val pw = new PiecewiseBMC(Split(0, zero, one), 2, l)
    val values = Rect.cells(Rect.of2d(0, 3, 0, 3)).map(pw.value).toSeq
    assert(values.sorted == (0L until 16L).toList)
  }

  test("nested splits consume the highest unused bit of each dimension") {
    val l = 2
    val leaf = Tail(interleave(Array(1, 1)))
    // Split on x's top bit, then within each half on y's top bit.
    val inner = Split(1, leaf, leaf)
    val pw = new PiecewiseBMC(Split(0, inner, inner), 2, l)
    // Quadrant order: (x<2,y<2), (x<2,y>=2), (x>=2,y<2), (x>=2,y>=2).
    def quadrantMax(x0: Long, y0: Long) =
      Rect.cells(Rect.of2d(x0, x0 + 1, y0, y0 + 1)).map(pw.value).max
    def quadrantMin(x0: Long, y0: Long) =
      Rect.cells(Rect.of2d(x0, x0 + 1, y0, y0 + 1)).map(pw.value).min
    assert(quadrantMax(0, 0) < quadrantMin(0, 2))
    assert(quadrantMax(0, 2) < quadrantMin(2, 0))
    assert(quadrantMax(2, 0) < quadrantMin(2, 2))
  }

  test("depth is the longest split chain") {
    val leaf = Tail(interleave(Array(1, 2)))
    val pw = new PiecewiseBMC(Split(0, Split(0, Tail(interleave(Array(0, 2))), Tail(interleave(Array(0, 2)))), leaf), 2, 2)
    assert(pw.depth == 2)
  }

  test("curve values use exactly d·l bits") {
    val l = 3
    val leaf = Tail(interleave(Array(l - 1, l)))
    val pw = new PiecewiseBMC(Split(0, leaf, leaf), 2, l)
    val values = Rect.cells(Rect.of2d(0, 7, 0, 7)).map(pw.value).toSeq
    assert(values.min == 0L && values.max == 63L)
    assert(values.distinct.size == 64)
  }
}
