package repro.core

/** d-dimensional Hilbert curve (the HC baseline of Section 6.4).
  *
  * Uses John Skilling's transpose algorithm ("Programming the Hilbert
  * curve", AIP Conf. Proc. 707, 2004): Gray-code / axis-exchange transform
  * of the coordinates followed by bit interleaving. Requires uniform bits
  * per dimension and `d·bits ≤ 62`.
  */
final class Hilbert(val d: Int, val bits: Int) extends SpaceFillingCurve {
  require(d >= 1 && bits >= 1 && d * bits <= 62,
    s"unsupported Hilbert shape d=$d bits=$bits")

  private val full = (1L << bits) - 1

  /** `spread(byte)`: the 8 bits of `byte`, bit b moved to bit b·d. */
  private val spread = Array.tabulate(256) { byte =>
    (0 until 8).foldLeft(0L)((s, b) => s | ((byte >>> b) & 1L) << (b * d))
  }

  override def value(p: Array[Long]): Long = {
    require(p.length == d, s"point has ${p.length} dims, curve has $d")
    // The d coordinates share one word, coordinate i in bits [i·bits,
    // (i+1)·bits) (d·bits ≤ 62), so the transform allocates nothing; masks
    // made from the tested bits replace Skilling's data-dependent branches.
    var x = 0L
    var i = 0
    while (i < d) { x |= (p(i) & full) << (i * bits); i += 1 }
    // Inverse undo excess work: transform axes to transpose form. For bit k
    // of coordinate i: if set, invert the low bits of coordinate 0; else
    // exchange the low bits of coordinates 0 and i (a no-op for i = 0).
    val width = d * bits
    var k = bits - 1
    while (k > 0) {
      val mask = (1L << k) - 1
      x ^= mask & -((x >>> k) & 1L)
      var s = bits
      while (s < width) {
        val set = -((x >>> (s + k)) & 1L)
        val t = (x ^ (x >>> s)) & mask & ~set
        x ^= (mask & set) | t | (t << s)
        s += bits
      }
      k -= 1
    }
    // Gray encode: coordinate i ^= coordinate i−1, in order.
    i = 1
    while (i < d) { x ^= ((x >>> ((i - 1) * bits)) & full) << (i * bits); i += 1 }
    // Bit j of t is the parity of the bits above j of the last coordinate.
    var t = (x >>> ((d - 1) * bits)) >>> 1
    var sh = 1
    while (sh < bits) { t ^= t >>> sh; sh <<= 1 }
    // Interleave the transpose (after x_i ^= t): bit b of dim i → output bit
    // b·d + (d−1−i), so dimension 0 carries the most significant bit of each group.
    var v = 0L
    i = 0
    while (i < d) {
      val xi = ((x >>> (i * bits)) ^ t) & full
      var b = 0
      while (b < bits) {
        v |= spread(((xi >>> b) & 0xff).toInt) << (b * d + (d - 1 - i))
        b += 8
      }
      i += 1
    }
    v
  }
}
