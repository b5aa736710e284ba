package repro.exp

import java.util.Random
import repro.core._

/** Cost-estimation efficiency experiments (Section 6.2: Figures 9–10 and
  * Table 6).
  *
  * Measures, per candidate BMC, the time to compute the *total workload
  * cost*: the closed-form estimators GC (Eq. 6) / LC (Alg. 2) against the
  * naive baselines NGC (Eq. 5 per query) / NLC (curve-segment scan per
  * query), plus the initialization times IGC / ILC, all in a warmed JVM.
  * Queries are squares at random locations, like the paper's.
  */
object CostEfficiencyExp {

  /** One measurement point. All times are nanoseconds, each one
    * [[TableFmt.bestOf]] reading.
    */
  final case class Row(
      label: String,        // e.g. "n=2^4"
      initNanos: Double,    // IGC or ILC
      fastNanosPerEval: Double, // GC or LC, per candidate BMC
      naiveNanosPerEval: Double // NGC or NLC, per candidate BMC
  ) {
    def gain: Double = naiveNanosPerEval / math.max(1.0, fastNanosPerEval)
  }

  /** Each sweep varies one of these Table 5 values (scaled per DESIGN.md
    * § 6): n = 2⁴ queries, δ = 16·2⁴ = 256 cells, ℓ = 10, d = 2.
    */
  private val BaseQueries = 16
  private val BaseDelta = 256L
  private val BaseBits = 10
  private val BaseD = 2
  private val Seed = 11L
  /** m, the random candidate BMCs each measurement point evaluates. */
  private val Candidates = 50

  /** Built as a `Seq` once, so no timed call copies the workload. */
  private def queries(n: Int, delta: Long, bits: Int, d: Int): Seq[Rect] = {
    val rng = new Random(Seed)
    val k = 1L << bits
    val edge = math.min(delta, k)
    Array.fill(n) {
      val lo = new Array[Long](d)
      val hi = new Array[Long](d)
      var i = 0
      while (i < d) {
        val s = (rng.nextDouble() * (k - edge + 1)).toLong
        lo(i) = s; hi(i) = s + edge - 1
        i += 1
      }
      Rect(lo, hi)
    }.toSeq
  }

  /** A cost model as Figs. 9–10 and Table 6 time it, holding only what
    * differs between GC and LC.
    *
    * @param init      the O(n) initialization (IGC/ILC); the function it
    *                  returns is the O(1) cost (GC/LC)
    * @param naive     the naive baseline (NGC/NLC)
    * @param naiveAll  whether the baseline is timed on all m candidates, or
    *                  on the first only
    * @param nExps     panel a's exponents of n
    * @param bitsSweep panel c's ℓ
    * @param deltaAtD  panel d's δ at dimensionality d
    */
  final case class Model(
      name: String, fig: Int, fastHeader: String, naiveHeader: String,
      naiveFmt: Double => String, gainFmt: String,
      init: (Seq[Rect], Int, Int) => BMC => BigInt,
      naive: (Seq[Rect], BMC) => BigInt, naiveAll: Boolean,
      nExps: Seq[Int], bitsSweep: Seq[Int], deltaAtD: Int => Long)

  /** GC against NGC (Fig. 9). */
  val Global: Model = Model("global", 9, "GC (µs/eval)", "NGC (µs/eval)", TableFmt.micros, "%.1fx",
    (qs, d, bits) => GlobalCost.Estimator(qs, d, bits).cost, GlobalCost.naive, naiveAll = true,
    Seq(0, 2, 4, 6, 8, 10), Seq(10, 12, 14, 16), _ => BaseDelta)

  /** LC against NLC (Fig. 10). A naive scan is O(V) per query, so it is
    * timed on one candidate, panels a and c stop before it takes minutes,
    * and panel d shrinks δ as d grows to keep V manageable.
    */
  val Local: Model = Model("local", 10, "LC (µs/eval)", "NLC (ms/eval)", TableFmt.ms, "%.0fx",
    (qs, d, bits) => LocalCost.PatternTables(qs, d, bits).cost, LocalCost.naive, naiveAll = false,
    Seq(0, 2, 4, 6, 8), Seq(10, 12, 14), d => math.max(4L, 64L >> d))

  /** One measurement point of `model` on `n` queries of edge `delta`, over
    * m random candidate BMCs.
    */
  def measure(model: Model, n: Int = BaseQueries, delta: Long = BaseDelta, bits: Int = BaseBits,
              d: Int = BaseD): Row = {
    val qs = queries(n, delta, bits, d)
    val rng = new Random(Seed + 1)
    val cands = Array.fill(Candidates)(BMC.random(d, bits, rng))
    val naiveCands = if (model.naiveAll) cands else cands.take(1)
    val initNanos = TableFmt.bestOf(model.init(qs, d, bits))
    val cost = model.init(qs, d, bits)
    // A Long checksum of every result's bit length keeps the JIT from
    // eliding the work without adding a BigInt sum to each timed evaluation.
    var sink = 0L
    val fast = TableFmt.bestOf(cands.foreach(c => sink += cost(c).bitLength))
    val naive = TableFmt.bestOf(naiveCands.foreach(c => sink += model.naive(qs, c).bitLength))
    require(sink > 0) // consume the sink: every cost is at least n ≥ 1
    Row(s"n=$n,δ=$delta,ℓ=$bits,d=$d", initNanos, fast / Candidates, naive / naiveCands.length)
  }

  /** Table 6: initialization and naive costs while varying n = 2¹..2¹⁰. */
  def table6(): Seq[(Int, Row, Row)] =
    (1 to 10).map { e =>
      val n = 1 << e
      (n, measure(Global, n = n), measure(Local, n = n))
    }

  def table6Table(rows: Seq[(Int, Row, Row)]): String =
    TableFmt.render("Table 6: initialization costs of GC and LC (varying n)",
      Seq("n", "IGC (µs)", "NGC (µs)", "ILC (µs)", "NLC (s)"),
      rows.map { case (n, g, l) =>
        Seq(n.toString, TableFmt.micros(g.initNanos), TableFmt.micros(g.naiveNanosPerEval),
          TableFmt.micros(l.initNanos), TableFmt.secs(l.naiveNanosPerEval))
      })

  private def us(nanos: Double): String = s"${TableFmt.micros(nanos)} µs"

  /** Table 6's shape: both naive costs grow with n, and at the largest n
    * each init stays within reach of one naive evaluation.
    */
  def table6Claims(rows: Seq[(Int, Row, Row)]): Seq[Claim] = {
    val ngc = rows.map(_._2.naiveNanosPerEval)
    val nlc = rows.map(_._3.naiveNanosPerEval)
    val (n, g, l) = rows.last
    Seq(
      Claim(s"Table 6: NGC at n=$n, ${us(ngc.last)}, > 4 × its minimum ${us(ngc.min)}", ngc.last > ngc.min * 4),
      Claim(s"Table 6: NLC at n=$n, ${us(nlc.last)}, > 4 × its minimum ${us(nlc.min)}", nlc.last > nlc.min * 4),
      Claim(s"Table 6: IGC at n=$n, ${us(g.initNanos)}, < 10 × NGC ${us(ngc.last)}", g.initNanos < ngc.last * 10),
      Claim(s"Table 6: ILC at n=$n, ${us(l.initNanos)}, < NLC ${us(nlc.last)}", l.initNanos < nlc.last.toLong))
  }

  /** The panels of Figs. 9 and 10: a–d sweep n, δ, ℓ and d. */
  val Panels: Seq[Char] = "abcd"

  /** One panel of `model`'s figure. Each row's label names the swept value. */
  def sweep(model: Model, panel: Char): Seq[Row] = panel match {
    case 'a' => model.nExps.map(e => measure(model, n = 1 << e).copy(label = s"n=2^$e"))
    case 'b' => Seq(16L, 32L, 64L, 128L, 256L).map(dl => measure(model, delta = dl).copy(label = s"δ=$dl"))
    case 'c' =>
      // Query extent scales with the resolution (a fixed real-world query
      // covers 2^(ℓ−10)× more cells per dimension at resolution ℓ), which
      // is what makes the naive scan infeasible at large ℓ.
      model.bitsSweep.map(b => measure(model, delta = 16L << (b - 10), bits = b).copy(label = s"ℓ=$b"))
    case 'd' =>
      Seq(2, 3, 4).map(dd => measure(model, delta = model.deltaAtD(dd), d = dd).copy(label = s"d=$dd"))
    case other => throw new IllegalArgumentException(s"no panel $other")
  }

  def sweepTable(model: Model, panel: Char, rows: Seq[Row]): String = {
    val param = Map('a' -> "n", 'b' -> "δ", 'c' -> "ℓ", 'd' -> "d")(panel)
    val note = if (panel == 'd') " (gain column = paper's y-axis)" else ""
    TableFmt.render(s"Fig ${model.fig}$panel: ${model.name} cost vs $param$note",
      Seq("param", model.fastHeader, model.naiveHeader, "gain"),
      rows.map(r => Seq(r.label, TableFmt.micros(r.fastNanosPerEval),
        model.naiveFmt(r.naiveNanosPerEval), model.gainFmt.format(r.gain))))
  }

  /** The paper's shape claims on one panel of `model`'s figure: Fig. 9's GC
    * gains on NGC, and Fig. 10's LC gains on NLC, whose scan grows with δ and ℓ.
    */
  def sweepClaims(model: Model, panel: Char, rows: Seq[Row]): Seq[Claim] = {
    val fig = s"Fig ${model.fig}$panel"
    val (first, last) = (rows.head, rows.last)
    def gain(r: Row): String = f"gain at ${r.label} ${r.gain}%.1fx"
    def nlc(r: Row): String = s"NLC at ${r.label} ${us(r.naiveNanosPerEval)}"
    def everyGain(min: Double): Claim =
      Claim(s"$fig: every gain > ${min}x: ${rows.map(r => f"${r.gain}%.1f").mkString(", ")}", rows.forall(_.gain > min))
    (model.fig, panel) match {
      case (9, 'a') => Seq(Claim(s"$fig: ${gain(last)} > 4 × ${gain(first)}", last.gain > first.gain * 4))
      case (9, 'b') =>
        val f = rows.map(_.naiveNanosPerEval)
        Seq(Claim(s"$fig: NGC flat in δ: max ${us(f.max)} < 10 × min ${us(f.min)}", f.max < f.min * 10))
      case (9, 'c') => Seq(everyGain(1.0))
      case (9, 'd') => Seq(everyGain(2.0))
      case (10, 'a') => Seq(
        Claim(s"$fig: ${gain(last)} > 1000x", last.gain > 1000.0),
        Claim(s"$fig: ${gain(last)} > ${gain(first)}", last.gain > first.gain))
      case (10, 'b') =>
        val lc = rows.map(_.fastNanosPerEval)
        Seq(Claim(s"$fig: ${nlc(last)} > 16 × ${nlc(first)}", last.naiveNanosPerEval > first.naiveNanosPerEval * 16),
          Claim(s"$fig: LC flat in δ: max ${us(lc.max)} < 50 × max(min ${us(lc.min)}, 1 µs)",
            lc.max < math.max(lc.min, 1000.0) * 50))
      case (10, 'c') => Seq(
        Claim(s"$fig: ${nlc(last)} > 8 × ${nlc(first)}", last.naiveNanosPerEval > first.naiveNanosPerEval * 8),
        everyGain(100.0))
      case (10, 'd') => Seq(everyGain(10.0))
      case (f, p) => throw new IllegalArgumentException(s"no Fig $f$p")
    }
  }
}
