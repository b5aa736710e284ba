package repro.learn

import repro.core.{BMC, PiecewiseBMC, Rect, WorkloadCost}

/** QUILTS (Nishimura & Yokota, SIGMOD'17), re-implemented from the
  * description in Section 2 of the reproduced paper (the original code is
  * unavailable — like the paper's authors we re-implement it, and like
  * them we plug in *our* O(1) cost model, because "the original cost model
  * is prohibitively expensive", Section 6.4.2).
  *
  * QUILTS designs a small family of candidate BMCs from the query-window
  * shape: the low-order bits (those resolving space *inside* a typical
  * query window) and the high-order bits (ordering the windows) are each
  * arranged either interleaved (Z-like) or dimension-major (C-like), with
  * the split point per dimension taken from the average query extent. The
  * best candidate under the cost model is selected.
  */
object Quilts {

  /** Candidate BMCs designed from the workload's average query shape. */
  def candidates(queries: Seq[Rect], d: Int, bits: Int): Seq[BMC] = {
    require(queries.nonEmpty, "empty workload")
    // Bits "inside" a typical query window, per dimension.
    val lowBits: Array[Int] = Array.tabulate(d) { i =>
      val avg = queries.map(q => q.extent(i).toDouble).sum / queries.size
      math.max(0, math.min(bits, math.round(math.log(avg) / math.log(2)).toInt))
    }

    // An arrangement turns a per-dimension bit-count into an LSB-first
    // dimension sequence.
    def majorOrder(counts: Array[Int], order: Seq[Int]): Seq[Int] =
      // LSB-first: the *last* dimension in `order` is most significant.
      order.reverse.flatMap(i => Seq.fill(counts(i))(i))

    val dimPerms = (0 until d).permutations.toSeq
    def arrangements(counts: Array[Int]): Seq[Seq[Int]] =
      if (counts.forall(_ == 0)) Seq(Seq.empty)
      else (PiecewiseBMC.interleave(counts).dims.toSeq +: dimPerms.map(majorOrder(counts, _))).distinct

    val highBits = Array.tabulate(d)(i => bits - lowBits(i))
    val designed = for {
      low  <- arrangements(lowBits)
      high <- arrangements(highBits)
    } yield BMC(low ++ high, d)

    // Always include the deterministic schemes as fallback candidates.
    val fallbacks = BMC.zOrder(d, bits) +: (0 until d).map(BMC.lexicographic(d, bits, _))
    (designed ++ fallbacks).distinct
  }

  /** Design candidates and select the minimum-cost curve. */
  def design(cost: WorkloadCost, bits: Int): (BMC, BigInt) = {
    val cands = candidates(cost.queries, cost.d, bits)
    cands.map(c => (c, cost.cost(c))).minBy(_._2)
  }
}
