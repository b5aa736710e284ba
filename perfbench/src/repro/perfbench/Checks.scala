package repro.perfbench

import repro.core._

/** Independent references the correctness gate compares the system with. */
object Checks {

  /** A deterministic sample of `k` items. */
  def sample[A](xs: Seq[A], k: Int, seed: Long): Seq[A] =
    new scala.util.Random(seed).shuffle(xs).take(k)

  /** GC against NGC, and LC against the BigInt sum of per-query sections,
    * for every candidate in `sample`.
    */
  def costModel(g: Gate, label: String, wc: WorkloadCost, sample: Seq[BMC]): Unit =
    sample.foreach { s =>
      g.equal(s"$label: GC = NGC for $s")(wc.global.cost(s), GlobalCost.naive(wc.queries, s))
      g.equal(s"$label: LC = sum of sections for $s")(
        wc.local.cost(s),
        wc.queries.foldLeft(BigInt(0))((acc, q) => acc + BigInt(LocalCost.sections(q, s))))
    }

  /** `ClusteredIndex.blockAccesses` against a count made without the index,
    * on `queries`.
    */
  def indexCounts(g: Gate, label: String, cells: Array[Array[Long]], curve: SpaceFillingCurve,
                  idx: ClusteredIndex, queries: Seq[Rect]): Unit = {
    val ref = new DistinctBlocks(cells, curve, idx.blockSize)
    queries.foreach(q => g.equal(s"$label: index count = reference count on ${q.show}")(idx.blockAccesses(q), ref(q)))
  }

  /** Distinct blocks holding a point of a query when the points are sorted
    * by curve value and packed `b` per block.
    *
    * Points with equal values share a cell, so a query takes all or none of
    * them; their order among themselves cannot change the count. The blocks
    * of a group are those of its rank range in the sorted values.
    */
  final class DistinctBlocks(cells: Array[Array[Long]], curve: SpaceFillingCurve, b: Int) {
    private val values = cells.map(curve.value)
    private val sorted = { val s = values.clone(); java.util.Arrays.sort(s); s }

    def apply(q: Rect): Long = {
      val hits = Array.newBuilder[Long]
      var i = 0
      while (i < cells.length) { if (q.contains(cells(i))) hits += values(i); i += 1 }
      val hv = hits.result()
      java.util.Arrays.sort(hv)
      var count = 0L
      var last = -1L
      var j = 0
      while (j < hv.length) {
        var k = j
        while (k < hv.length && hv(k) == hv(j)) k += 1
        val lo = lowerBound(hv(j))
        val first = math.max(lo / b, last + 1)
        val end = (lo + (k - j) - 1) / b
        if (end >= first) { count += end - first + 1; last = end }
        j = k
      }
      count
    }

    private def lowerBound(v: Long): Long = {
      var lo = 0
      var hi = sorted.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (sorted(mid) < v) lo = mid + 1 else hi = mid
      }
      lo.toLong
    }
  }

  /** Per-σ cost-model timings on one workload: the IGC/ILC inits, GC, LC,
    * the combined cost and the NGC baseline, in ns per candidate.
    */
  def costProbe(m: Metrics, queries: Seq[Rect], d: Int, candidates: Seq[BMC]): Unit = {
    val bits = Array.fill(d)(Calls.Bits)
    val wc = new WorkloadCost(queries, d, bits)
    val cs = candidates.toArray
    def perCandidate(f: BMC => Any): Double =
      Stats.nsPerCall { var i = 0; while (i < cs.length) { f(cs(i)); i += 1 } } / cs.length
    m("GlobalCost.init_ms") = Stats.nsPerCall(new GlobalCost.Estimator(queries, d, bits)) / 1e6
    m("LocalCost.init_ms") = Stats.nsPerCall(new LocalCost.PatternTables(queries, d, bits)) / 1e6
    m("GlobalCost.eval_ns") = perCandidate(wc.global.cost)
    m("LocalCost.eval_ns") = perCandidate(wc.local.cost)
    m("WorkloadCost.eval_ns") = perCandidate(wc.cost)
    m("GlobalCost.naive_eval_ns") = perCandidate(GlobalCost.naive(queries, _))
    m("GlobalCost.naive_over_gc") = m.values("GlobalCost.naive_eval_ns") / m.values("GlobalCost.eval_ns")
  }
}
