package repro.core

/** A space-filling curve over a d-dimensional integer grid.
  *
  * Coordinates are grid-cell column indices in `[0, 2^bits(i))` for
  * dimension `i`. The total bit budget `Σ bits(i)` must be ≤ 62 so curve
  * values fit a `Long`.
  */
trait SpaceFillingCurve extends Serializable {
  /** Dimensionality of the grid. */
  def d: Int

  /** The 1-D curve value of grid cell `p` (length d). */
  def value(p: Array[Long]): Long
}

/** A bit-merging curve (BMC), Section 3.1 of the paper.
  *
  * `dims(r)` is the dimension that owns the bit at rank `r` of the merged
  * value, with rank 0 the least-significant bit. Within each dimension the
  * bit order is preserved: the j-th occurrence of dimension `i` (counting
  * from rank 0) carries bit j of `x_i` (Eq. 1–2). BMCs generalize the
  * Z-order curve and the lexicographic (C-) curve.
  *
  * Dimensions may own different numbers of bits; the uniform case
  * (`ℓ` bits each) is what the paper's experiments use, while the
  * non-uniform case arises inside BMTree sub-spaces.
  */
final class BMC private (val dims: Array[Int], val d: Int) extends SpaceFillingCurve {
  /** Total number of merged bits, `L = Σ_i ℓ_i`. */
  val length: Int = dims.length

  /** ℓ_i: number of bits owned by each dimension. */
  val bitsPerDim: Array[Int] = {
    val c = new Array[Int](d)
    dims.foreach(c(_) += 1)
    c
  }

  /** `bitOfDim(r)`: which bit (0-indexed, LSB first) of its dimension the
    * rank-`r` position carries.
    */
  val bitOfDim: Array[Int] = {
    val seen = new Array[Int](d)
    val out = new Array[Int](length)
    var r = 0
    while (r < length) {
      val dim = dims(r)
      out(r) = seen(dim)
      seen(dim) += 1
      r += 1
    }
    out
  }

  override def value(p: Array[Long]): Long = {
    require(p.length == d, s"point has ${p.length} dims, curve has $d")
    var v = 0L
    var r = 0
    while (r < length) {
      v |= ((p(dims(r)) >>> bitOfDim(r)) & 1L) << r
      r += 1
    }
    v
  }

  /** Swap the bits at ranks `a` and `a+1` (the LBMC action, Section 5).
    * A swap of two same-dimension bits would be a no-op by the
    * order-preservation constraint, so it returns `this`.
    */
  def swap(a: Int): BMC = {
    require(a >= 0 && a + 1 < length, s"swap position $a out of [0, ${length - 1})")
    if (dims(a) == dims(a + 1)) this
    else {
      val nd = dims.clone()
      val t = nd(a); nd(a) = nd(a + 1); nd(a + 1) = t
      new BMC(nd, d)
    }
  }

  /** σ as a string, most-significant bit first, e.g. "YXYX". */
  override def toString: String = dims.reverseIterator.map(BMC.letter).mkString

  override def equals(o: Any): Boolean = o match {
    case b: BMC => b.d == d && java.util.Arrays.equals(b.dims, dims)
    case _      => false
  }

  override def hashCode: Int = java.util.Arrays.hashCode(dims) * 31 + d
}

object BMC {
  /** The names of dimensions 0…7, as σ strings print them. */
  private[core] val Letters = "XYZWVUTS"

  private[core] def letter(dim: Int): Char =
    if (dim < Letters.length) Letters(dim) else ('A' + dim).toChar

  /** Build from ranks LSB-first: `dims(0)` is the least-significant bit. */
  def apply(dims: Seq[Int], d: Int): BMC = {
    require(dims.nonEmpty, "empty bit sequence")
    require(dims.length <= 62, s"curve needs ${dims.length} bits; max 62 for Long values")
    require(dims.forall(i => i >= 0 && i < d), s"dimension ids must be in [0, $d)")
    // A dimension MAY own zero bits: BMTree sub-spaces exhaust dimensions
    // unevenly. Named full-grid curves always assign ≥ 1 bit per dimension.
    new BMC(dims.toArray, d)
  }

  /** Z-order curve: dimensions interleave round-robin; for d=2, ℓ=2 this
    * is "YXYX" (x is the least-significant bit, as in the paper's figures).
    */
  def zOrder(d: Int, bits: Int): BMC =
    PiecewiseBMC.interleave(Array.fill(d)(bits))

  /** Lexicographic (C-) curve ordered by `major` first: all bits of the
    * major dimension are most significant. For d=2 major=0 this is
    * "XXX...YYY" — order by x, then y.
    */
  def lexicographic(d: Int, bits: Int, major: Int = 0): BMC = {
    val order = (0 until d).filter(_ != major) :+ major // LSB-first: minor dims low
    apply(order.flatMap(i => Seq.fill(bits)(i)), d)
  }

  /** A uniformly random valid BMC: the candidates that the cost-efficiency
    * experiments and the cost-scoring benchmark score, and test inputs.
    */
  def random(d: Int, bits: Int, rng: java.util.Random): BMC = {
    val ids = new scala.util.Random(rng).shuffle((0 until d).flatMap(i => Seq.fill(bits)(i)).toVector)
    apply(ids, d)
  }
}
