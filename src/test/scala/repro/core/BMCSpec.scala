package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** BMC representation and curve-value calculation (Section 3.1). */
class BMCSpec extends AnyFunSuite {

  test("fromString/toString round-trip, MSB first") {
    val bmc = TestRefs.fromString("YXYX")
    assert(bmc.toString == "YXYX")
    assert(bmc.d == 2)
    assert(bmc.bitsPerDim.toSeq == Seq(2, 2))
  }

  test("dims are stored LSB-first") {
    val bmc = TestRefs.fromString("YXXY")
    // Rank 0 (LSB) is the rightmost letter Y.
    assert(bmc.dims.toSeq == Seq(1, 0, 0, 1))
  }

  test("paper Figure 3: F_XYZXYZXYZ(2,1,7)") {
    val bmc = TestRefs.fromString("XYZXYZXYZ")
    // x=010, y=001, z=111: x-bit2 at rank 5 → 32; y-bit1 at rank 1 → 2;
    // z bits at ranks 0,3,6 → 1+8+64 = 73. Total 107.
    assert(bmc.value(Array(2L, 1L, 7L)) == 107L)
  }

  test("zOrder d=2 interleaves with x least significant") {
    val z = BMC.zOrder(2, 2)
    assert(z.toString == "YXYX")
    // (1,0) -> 1, (0,1) -> 2, (1,1) -> 3: the 'Z' visit order.
    assert(z.value(Array(0L, 0L)) == 0L)
    assert(z.value(Array(1L, 0L)) == 1L)
    assert(z.value(Array(0L, 1L)) == 2L)
    assert(z.value(Array(1L, 1L)) == 3L)
  }

  test("lexicographic curve orders by the major dimension first") {
    val lex = BMC.lexicographic(2, 3, major = 0)
    assert(lex.toString == "XXXYYY")
    // Larger x always dominates regardless of y.
    assert(lex.value(Array(1L, 0L)) > lex.value(Array(0L, 7L)))
  }

  test("lexicographic curve with y major") {
    val lex = BMC.lexicographic(2, 3, major = 1)
    assert(lex.toString == "YYYXXX")
    assert(lex.value(Array(7L, 0L)) < lex.value(Array(0L, 1L)))
  }

  test("value of the all-ones cell is 2^L - 1") {
    for (d <- 2 to 4; l <- 1 to 4) {
      val bmc = BMC.zOrder(d, l)
      val p = Array.fill(d)((1L << l) - 1)
      assert(bmc.value(p) == (1L << (d * l)) - 1, s"d=$d l=$l")
    }
  }

  test("invalid dimension letters are rejected") {
    intercept[IllegalArgumentException](TestRefs.fromString("XQ"))
  }

  test("empty bit sequences are rejected") {
    intercept[IllegalArgumentException](BMC(Seq.empty, 2))
  }

  test("out-of-range dimension ids are rejected") {
    intercept[IllegalArgumentException](BMC(Seq(0, 2), 2))
  }

  test("more than 62 bits are rejected") {
    intercept[IllegalArgumentException](BMC.zOrder(2, 32))
  }

  test("within-dimension bit order is preserved (γ_i^j < γ_i^(j+1))") {
    val rng = new Random(1)
    for (_ <- 1 to 50) {
      val bmc = BMC.random(3, 4, rng)
      for (i <- 0 until 3) {
        // γ_i^(j+1): the cell with only bit j of dimension i set maps to 2^γ.
        val gammas = (0 until 4).map { j =>
          val p = new Array[Long](3)
          p(i) = 1L << j
          val v = bmc.value(p)
          assert(java.lang.Long.bitCount(v) == 1, s"$bmc dim $i bit $j maps to $v")
          java.lang.Long.numberOfTrailingZeros(v)
        }
        assert(gammas == gammas.sorted.distinct, s"$bmc dim $i ranks $gammas")
      }
    }
  }

  // Bijectivity: every cell maps to a distinct value and inverse recovers it.
  for (d <- 2 to 3; l <- 1 to 3) {
    test(s"bijectivity and inverse on the full d=$d, l=$l grid") {
      val rng = new Random(d * 100 + l)
      val bmc = BMC.random(d, l, rng)
      val k = 1L << l
      val seen = scala.collection.mutable.Set.empty[Long]
      val full = Rect(Array.fill(d)(0L), Array.fill(d)(k - 1))
      Rect.cells(full).foreach { p =>
        val v = bmc.value(p)
        assert(v >= 0 && v < (1L << (d * l)))
        assert(seen.add(v), s"duplicate value $v for ${p.mkString(",")}")
        assert(TestRefs.inverse(bmc, v).toSeq == p.toSeq)
      }
      assert(seen.size == math.pow(k.toDouble, d).toLong)
    }
  }

  // Theorem 1: monotonicity.
  for (l <- 2 to 4) {
    test(s"monotonicity (Theorem 1) holds for random BMCs at l=$l") {
      val rng = new Random(l)
      for (_ <- 1 to 20) {
        val bmc = BMC.random(2, l, rng)
        val k = (1L << l) - 1
        for (_ <- 1 to 50) {
          val p1 = Array((rng.nextDouble() * k).toLong, (rng.nextDouble() * k).toLong)
          val p2 = Array(p1(0) + (rng.nextDouble() * (k - p1(0) + 1)).toLong,
                         p1(1) + (rng.nextDouble() * (k - p1(1) + 1)).toLong)
          assert(bmc.value(p1) <= bmc.value(p2),
            s"$bmc: F(${p1.mkString(",")}) > F(${p2.mkString(",")})")
        }
      }
    }
  }

  test("swap exchanges adjacent different-dimension bits") {
    val bmc = TestRefs.fromString("YXYX") // dims LSB-first: X,Y,X,Y
    val swapped = bmc.swap(0)
    assert(swapped.toString == "YXXY")
  }

  test("swap of same-dimension bits is the identity") {
    val bmc = TestRefs.fromString("YYXX") // dims LSB-first: X,X,Y,Y
    assert(bmc.swap(0) eq bmc)
    assert(bmc.swap(2) eq bmc)
  }

  test("swap out of range is rejected") {
    val bmc = TestRefs.fromString("YX")
    intercept[IllegalArgumentException](bmc.swap(1))
    intercept[IllegalArgumentException](bmc.swap(-1))
  }

  test("swap changes curve values consistently") {
    val bmc = TestRefs.fromString("YXYX")
    val sw = bmc.swap(1) // ranks 1,2: Y,X -> X,Y => YYXX? check via values
    val full = Rect.of2d(0, 3, 0, 3)
    // Both are bijections over the grid.
    val vs = Rect.cells(full).map(sw.value).toSet
    assert(vs == (0L until 16L).toSet)
  }

  test("equals/hashCode by structure") {
    assert(TestRefs.fromString("YXYX") == BMC.zOrder(2, 2))
    assert(TestRefs.fromString("YXYX").hashCode == BMC.zOrder(2, 2).hashCode)
    assert(TestRefs.fromString("YXXY") != BMC.zOrder(2, 2))
  }

  test("all(d=2, l=2) enumerates C(4,2)=6 curves") {
    val all = TestRefs.allBMCs(2, 2)
    assert(all.size == 6)
    assert(all.distinct.size == 6)
    assert(all.contains(BMC.zOrder(2, 2)))
    assert(all.contains(BMC.lexicographic(2, 2, 0)))
  }

  test("all(d=3, l=1) enumerates 3! = 6 curves") {
    assert(TestRefs.allBMCs(3, 1).size == 6)
  }

  test("all(d=2, l=3) enumerates C(6,3)=20 curves") {
    assert(TestRefs.allBMCs(2, 3).size == 20)
  }

  test("random BMCs are valid and uniform-ish over dims") {
    val rng = new Random(7)
    for (_ <- 1 to 30) {
      val bmc = BMC.random(2, 5, rng)
      assert(bmc.bitsPerDim.toSeq == Seq(5, 5))
    }
  }

  test("non-uniform bits per dimension are supported") {
    val bmc = BMC(Seq(0, 0, 1, 0), 2) // x: 3 bits, y: 1 bit
    assert(bmc.bitsPerDim.toSeq == Seq(3, 1))
    assert(bmc.value(Array(7L, 1L)) == 15L)
    assert(bmc.value(Array(7L, 0L)) == 11L)
  }
}
