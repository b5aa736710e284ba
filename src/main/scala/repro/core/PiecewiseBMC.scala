package repro.core

/** A piecewise bit-merging curve, the curve family learned by the BMTree
  * (Li et al., PVLDB'23; Section 2 of the reproduced paper).
  *
  * The data space is partitioned quadtree-style: each inner node consumes
  * the *highest unused bit* of one chosen dimension, splitting the
  * sub-space in half; the two halves may order their interiors with
  * different sub-curves. A leaf orders its sub-space with a plain BMC over
  * the remaining (per-dimension) bits. Every root-to-leaf path consumes
  * one bit per level, so all curve values have exactly `d·ℓ` bits and the
  * mapping is a bijection on the grid.
  */
final class PiecewiseBMC(val root: PiecewiseBMC.Node, val d: Int, val bits: Int)
    extends SpaceFillingCurve {
  import PiecewiseBMC._

  /** Maximum split depth of the tree. */
  def depth: Int = {
    def go(n: Node): Int = n match {
      case Split(_, zero, one) => 1 + math.max(go(zero), go(one))
      case Tail(_)             => 0
    }
    go(root)
  }

  override def value(p: Array[Long]): Long = {
    require(p.length == d, s"point has ${p.length} dims, curve has $d")
    var v = 0L
    // Remaining (unconsumed) low bits of each dimension's coordinate.
    val rem = Array.fill(d)(bits)
    val local = p.clone()
    var node = root
    var done = false
    while (!done) node match {
      case Split(dim, zero, one) =>
        rem(dim) -= 1
        val bit = (local(dim) >>> rem(dim)) & 1L
        v = (v << 1) | bit
        local(dim) &= (1L << rem(dim)) - 1 // keep only still-unconsumed bits
        node = if (bit == 0) zero else one
      case Tail(bmc) =>
        var totalRem = 0
        var i = 0
        while (i < d) { totalRem += rem(i); i += 1 }
        v = (v << totalRem) | bmc.value(local)
        done = true
    }
    v
  }
}

object PiecewiseBMC {
  sealed trait Node extends Serializable

  /** Inner node: split on the highest unused bit of `dim`. */
  final case class Split(dim: Int, zero: Node, one: Node) extends Node

  /** Leaf: order the sub-space by `bmc` over the remaining bits. */
  final case class Tail(bmc: BMC) extends Node

  /** Round-robin interleave of the remaining bits (the default completion
    * below the learned depth; reduces to the Z-order curve at the root).
    */
  def interleave(remBits: Array[Int]): BMC = {
    val d = remBits.length
    val dims = scala.collection.mutable.ArrayBuffer.empty[Int]
    var level = 0
    val maxRem = remBits.maxOption.getOrElse(0)
    while (level < maxRem) {
      var i = 0
      while (i < d) {
        if (level < remBits(i)) dims += i
        i += 1
      }
      level += 1
    }
    BMC(dims.toSeq, d)
  }
}
