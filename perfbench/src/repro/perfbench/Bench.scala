package repro.perfbench

import scala.collection.mutable
import repro.core._

/** One workload of the benchmark.
  *
  * The harness constructs it, calls [[setup]] and [[warmUp]] (together the
  * timed set-up), runs [[iteration]] repeatedly, then calls [[check]] on the
  * state the last iteration left and, in a traced run, [[probe]].
  */
trait Bench {
  /** Generate the inputs from the seed; `s` times each layer. */
  def setup(s: Setup): Unit

  /** One untimed pass on a scaled-down copy of the inputs, so the JIT has
    * compiled the hot paths before the first timed iteration.
    */
  def warmUp(): Unit

  /** One run of the workload. Records its metrics in `m` and returns the
    * outputs that must repeat exactly at a fixed seed (chosen curves, counts).
    */
  def iteration(c: Clock, m: Metrics): Map[String, String]

  /** Correctness checks on the last iteration's results. */
  def check(g: Gate): Unit

  /** Per-layer measurements that need their own loop (per-σ evaluation
    * times, baseline ratios); traced runs only.
    */
  def probe(m: Metrics): Unit

  /** Exact outputs that repeat across runs but not across iterations of one
    * run, because they depend on state the session accumulates.
    */
  def sessionDependent: Set[String] = Set.empty

  /** Spark master, or "none" for the single-threaded core workloads. */
  def sparkMaster: String = "none"

  def close(): Unit = ()
}

/** Times the set-up layers (data, quantisation, queries, sessions) by name. */
final class Setup {
  val ms: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def time[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    try body
    finally ms(name) = ms.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
  }
}

/** Calls into the system shared by the workloads, each wrapped in its span. */
object Calls {
  val Bits = 16
  val BlockSize = 128

  def zc(d: Int): BMC = BMC.zOrder(d, Bits)
  def fixed2d: Seq[BMC] = Seq(zc(2), BMC.lexicographic(2, Bits, 0), BMC.lexicographic(2, Bits, 1))

  /** OSM-like (or other) points quantised to the ℓ=16 grid. */
  def cells(s: Setup, dist: String, n: Int, seed: Long): Array[Array[Long]] = {
    val pts = s.time("SpatialGen.points")(SpatialGen.points(dist, n, seed))
    s.time("SpatialGen.quantize")(SpatialGen.quantizeAll(pts, Bits))
  }

  def valueLayer(curve: SpaceFillingCurve): String = curve match {
    case _: BMC          => "BMC.value"
    case _: Hilbert      => "Hilbert.value"
    case _: PiecewiseBMC => "PiecewiseBMC.value"
    case other           => s"${other.getClass.getSimpleName}.value"
  }

  /** Cluster `cells` by `curve`. A traced run makes the same two calls
    * `ClusteredIndex.build` makes, curve values and then sort and pack, so
    * each gets its own span.
    */
  def buildIndex(c: Clock, cells: Array[Array[Long]], curve: SpaceFillingCurve): ClusteredIndex =
    if (!c.traced) ClusteredIndex.build(cells, curve, BlockSize)
    else {
      val values = c.span(valueLayer(curve))(cells.map(curve.value))
      c.span("ClusteredIndex.buildWithValues")(ClusteredIndex.buildWithValues(cells, values, BlockSize))
    }

  /** Exact block accesses of each query. */
  def blockCounts(c: Clock, idx: ClusteredIndex, queries: Array[Rect]): Array[Long] =
    queries.map(q => c.span("ClusteredIndex.blockAccesses")(idx.blockAccesses(q)))

  /** Per-layer numbers of the index layer from a traced iteration.
    *
    * @param points     points valued per curve (N)
    * @param builds     indexes built
    * @param counts     block counts of every (index, query) pair evaluated
    * @param blocks     blocks per index, ⌈N/B⌉
    */
  def indexLayers(m: Metrics, layers: Map[String, Layer], points: Int, builds: Int,
                  counts: Seq[Long], blocks: Long): Unit = {
    Seq("BMC.value", "Hilbert.value", "PiecewiseBMC.value").foreach { n =>
      layers.get(n).foreach(l => m(s"${n}_ns_per_pt") = l.totalNs.toDouble / (l.calls.toLong * points))
    }
    val sort = layers.get("ClusteredIndex.buildWithValues").map(_.totalNs).getOrElse(0L)
    val eval = layers.get("ClusteredIndex.blockAccesses").map(_.totalNs).getOrElse(0L)
    val perQuery = counts.sum.toDouble / counts.size
    m("ClusteredIndex.sort_pack_ms") = Stats.ms(sort)
    m("ClusteredIndex.builds") = builds.toDouble
    m("ClusteredIndex.eval_ms") = Stats.ms(eval)
    m("ClusteredIndex.us_per_query") = eval / 1e3 / counts.size
    m("ClusteredIndex.blocks_per_query") = perQuery
    m("ClusteredIndex.blocks_touched_share") = perQuery / blocks
  }

  def blocksOf(n: Int): Long = (n.toLong + BlockSize - 1) / BlockSize

  /** Per-layer numbers of one or more LBMC runs (summed). */
  def lbmcLayers(m: Metrics, rs: Seq[repro.learn.LBMCResult]): Unit = {
    val total = rs.map(_.totalNanos).sum
    val reward = rs.map(_.rewardNanos).sum
    m("LBMC.total_ms") = total / 1e6
    m("LBMC.reward_ms") = reward / 1e6
    m("LBMC.train_ms") = (total - reward) / 1e6
    m("LBMC.steps") = rs.map(_.costTrace.size).sum.toDouble
    m("LBMC.reward_share") = reward.toDouble / total
  }

  /** Digest of a piecewise curve's structure, for exact comparison. */
  def shape(curve: PiecewiseBMC): String = {
    val sha = java.security.MessageDigest.getInstance("SHA-256").digest(curve.root.toString.getBytes("UTF-8"))
    s"depth ${curve.depth}, sha256 " + sha.take(8).map(b => f"$b%02x").mkString
  }
}
