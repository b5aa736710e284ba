package repro.core

/** An axis-aligned range query over grid cells (Definition 1).
  *
  * Both bounds are inclusive: the query covers cells with
  * `lo(i) <= x_i <= hi(i)` for every dimension `i`.
  */
final case class Rect(lo: Array[Long], hi: Array[Long]) {
  require(lo.length == hi.length, "lo/hi dimensionality mismatch")
  require(lo.indices.forall(i => lo(i) <= hi(i)), s"empty range: ${this.show}")

  /** Grid dimensionality. */
  def d: Int = lo.length

  /** Query extent (number of cells) in dimension `i`; throws
    * `ArithmeticException` past `Long.MaxValue`.
    */
  def extent(i: Int): Long = Math.addExact(Math.subtractExact(hi(i), lo(i)), 1L)

  /** V(q): the number of grid cells covered by the query; throws
    * `ArithmeticException` past `Long.MaxValue`.
    */
  def volume: Long = {
    var v = 1L
    var i = 0
    while (i < d) { v = Math.multiplyExact(v, extent(i)); i += 1 }
    v
  }

  /** Refuses a query that is not `bitsPerDim.length`-dimensional or that
    * leaves the grid `[0, 2^ℓ_i)` of some dimension i: the cost models
    * read coordinates bit by bit and would silently alias it.
    */
  def requireOnGrid(bitsPerDim: Array[Int]): Unit = {
    require(d == bitsPerDim.length, s"query dim $d != ${bitsPerDim.length}")
    var i = 0
    while (i < d) {
      require(lo(i) >= 0 && (bitsPerDim(i) >= 63 || hi(i) < (1L << bitsPerDim(i))),
        s"query $show leaves the grid [0, 2^${bitsPerDim(i)}) of dimension $i")
      i += 1
    }
  }

  /** Whether grid cell `p` satisfies the query predicate. */
  def contains(p: Array[Long]): Boolean = {
    var i = 0
    while (i < d) {
      if (p(i) < lo(i) || p(i) > hi(i)) return false
      i += 1
    }
    true
  }

  def show: String =
    lo.indices.map(i => s"[${lo(i)},${hi(i)}]").mkString("×")

  override def equals(o: Any): Boolean = o match {
    case r: Rect =>
      java.util.Arrays.equals(r.lo, lo) && java.util.Arrays.equals(r.hi, hi)
    case _ => false
  }

  override def hashCode: Int =
    java.util.Arrays.hashCode(lo) * 31 + java.util.Arrays.hashCode(hi)
}

object Rect {
  /** Convenience 2-D constructor. */
  def of2d(x0: Long, x1: Long, y0: Long, y1: Long): Rect =
    Rect(Array(x0, y0), Array(x1, y1))

  /** Enumerate every grid cell in the rectangle (test/NLC reference only —
    * cost is V(q)).
    */
  def cells(q: Rect): Iterator[Array[Long]] = {
    val d = q.d
    new Iterator[Array[Long]] {
      private val cur = q.lo.clone()
      private var more = true
      override def hasNext: Boolean = more
      override def next(): Array[Long] = {
        val out = cur.clone()
        var i = 0
        var carry = true
        while (carry && i < d) {
          if (cur(i) < q.hi(i)) { cur(i) += 1; carry = false }
          else { cur(i) = q.lo(i); i += 1 }
        }
        if (carry) more = false
        out
      }
    }
  }
}
