package repro.core

/** The min/max boxes of a sequence of zones (blocks, Parquet files, row
  * groups): per zone, the min and max of its rows in every dimension,
  * Moerkotte's "small materialized aggregates" (VLDB'98). A min/max pruner
  * skips a zone whose box is disjoint from a query and reads a zone whose
  * box lies inside it without testing its rows.
  *
  * The boxes are kept row-major: zone z's bounds in dimension `dim` are at
  * `z·d + dim`. Build one with [[ZoneMap.builder]].
  */
final class ZoneMap private (val size: Int, d: Int, min: Array[Long], max: Array[Long]) {

  /** How the `d`-dimensional query `q` meets zone `z`'s box:
    * [[ZoneMap.Disjoint]] if no cell of the box qualifies, [[ZoneMap.Inside]]
    * if every cell does, [[ZoneMap.Overlaps]] otherwise. Only `Overlaps`
    * zones need their rows read.
    */
  def relate(q: Rect, z: Int): ZoneMap.Relation = {
    if (q.d != d) throw new IllegalArgumentException(s"query dim ${q.d} != zone dim $d")
    val off = z * d
    var inside = true
    var i = 0
    while (i < d) {
      val a = min(off + i)
      val b = max(off + i)
      if (b < q.lo(i) || a > q.hi(i)) return ZoneMap.Disjoint
      if (a < q.lo(i) || b > q.hi(i)) inside = false
      i += 1
    }
    if (inside) ZoneMap.Inside else ZoneMap.Overlaps
  }

  /** Number of zones a min/max pruner must read for `q`: those whose box is
    * not disjoint from it.
    */
  def touched(q: Rect): Int = (0 until size).count(relate(q, _) != ZoneMap.Disjoint)
}

object ZoneMap {

  /** The relation of a zone's box to a query (see [[ZoneMap.relate]]). */
  sealed trait Relation
  case object Disjoint extends Relation
  case object Overlaps extends Relation
  case object Inside extends Relation

  /** A builder of `size` zones in `d` dimensions, every box empty. */
  def builder(size: Int, d: Int): Builder = new Builder(size, d)

  final class Builder private[ZoneMap] (size: Int, d: Int) {
    require(size >= 0 && d >= 0, s"$size zones of dimension $d")
    private val min = Array.fill(Math.multiplyExact(size, d))(Long.MaxValue)
    private val max = Array.fill(min.length)(Long.MinValue)

    /** Widen zone `z`'s box to cover `[lo, hi]` in dimension `dim`. */
    def include(z: Int, dim: Int, lo: Long, hi: Long): Unit = {
      require(z >= 0 && z < size && dim >= 0 && dim < d, s"no zone $z, dimension $dim of $size × $d")
      require(lo <= hi, s"empty range [$lo, $hi] for zone $z, dimension $dim")
      val i = z * d + dim
      if (lo < min(i)) min(i) = lo
      if (hi > max(i)) max(i) = hi
    }

    /** The zone map; refuses a zone some dimension of which was never
      * included, whose box would be empty.
      */
    def result(): ZoneMap = {
      for (i <- min.indices) require(min(i) <= max(i), s"zone ${i / d} was never included in dimension ${i % d}")
      new ZoneMap(size, d, min.clone(), max.clone())
    }
  }
}
