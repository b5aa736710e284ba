package repro.exp

import java.util.Random
import repro.core._

/** Cost-estimation efficiency experiments (Section 6.2: Figures 9–10 and
  * Table 6).
  *
  * Measures, per candidate BMC, the time to compute the *total workload
  * cost*: the closed-form estimators GC (Eq. 6) / LC (Alg. 2) against the
  * naive baselines NGC (Eq. 5 per query) / NLC (curve-segment scan per
  * query), plus the one-off initialization times IGC / ILC. Queries are
  * squares at random locations, like the paper's.
  */
object CostEfficiencyExp {

  /** One measurement point. All times are nanoseconds. */
  final case class Row(
      label: String,        // e.g. "n=2^4"
      initNanos: Long,      // IGC or ILC
      fastNanosPerEval: Double, // GC or LC, per candidate BMC
      naiveNanosPerEval: Double // NGC or NLC, per candidate BMC
  ) {
    def gain: Double = naiveNanosPerEval / math.max(1.0, fastNanosPerEval)
  }

  /** Default parameters, following Table 5 of the paper (scaled per
    * DESIGN.md § 6): n = 2⁴ queries, δ = 16·2⁴ = 256 cells, ℓ = 10, d = 2.
    */
  val DefaultN = 16
  val DefaultDelta = 256L
  val DefaultBits = 10
  val DefaultD = 2
  private val Seed = 11L

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

  private def candidates(d: Int, bits: Int, m: Int): Array[BMC] = {
    val rng = new Random(Seed + 1)
    Array.fill(m)(BMC.random(d, bits, rng))
  }

  /** Run both cost paths until ~`budgetMs` elapse so the JIT compiles the
    * hot methods before anything is timed (micro-benchmark hygiene; the
    * first few thousand interpreted calls would otherwise dominate at
    * small n).
    */
  private def warmup(budgetMs: Long)(f: => Unit): Unit = {
    val deadline = System.nanoTime() + budgetMs * 1_000_000L
    while (System.nanoTime() < deadline) f
  }

  /** Global-cost measurement at one parameter point. */
  def global(n: Int = DefaultN, delta: Long = DefaultDelta, bits: Int = DefaultBits,
             d: Int = DefaultD, m: Int = 50): Row = {
    val qs = queries(n, delta, bits, d)
    val cands = candidates(d, bits, m)
    val est0 = GlobalCost.Estimator(qs, d, bits)
    warmup(60) { est0.cost(cands(0)); GlobalCost.naive(qs.take(4), cands(0)) }
    // IGC: the one-off O(n) scan.
    val initNanos = TableFmt.bestOf(5)(GlobalCost.Estimator(qs, d, bits))
    val est = GlobalCost.Estimator(qs, d, bits)
    // Checksum accumulation keeps the JIT from eliding the work.
    var sink = BigInt(0)
    val fast = TableFmt.bestOf(5) { cands.foreach(c => sink += est.cost(c)) }
    val naive = TableFmt.bestOf(5) { cands.foreach(c => sink += GlobalCost.naive(qs, c)) }
    require(sink != BigInt(-1)) // consume the sink
    Row(s"n=$n,δ=$delta,ℓ=$bits,d=$d", initNanos, fast.toDouble / m, naive.toDouble / m)
  }

  /** Local-cost measurement at one parameter point. The naive scan is
    * O(V) per query, so it is measured over `mNaive` candidates only.
    */
  def local(n: Int = DefaultN, delta: Long = DefaultDelta, bits: Int = DefaultBits,
            d: Int = DefaultD, m: Int = 50, mNaive: Int = 2): Row = {
    val qs = queries(n, delta, bits, d)
    val cands = candidates(d, bits, m)
    val tables0 = LocalCost.PatternTables(qs, d, bits)
    warmup(60)(tables0.cost(cands(0)))
    // A naive scan takes milliseconds, so it gets its own budget: sharing
    // one would leave LC a few dozen calls, too few to compile it.
    warmup(60)(LocalCost.naive(qs.take(1), cands(0)))
    val initNanos = TableFmt.bestOf(3)(LocalCost.PatternTables(qs, d, bits))
    val tables = LocalCost.PatternTables(qs, d, bits)
    var sink = BigInt(0)
    val fast = TableFmt.bestOf(5) { cands.foreach(c => sink += tables.cost(c)) }
    val naiveCands = cands.take(mNaive)
    // Best of up to 5 scans within 0.2 s: the cheap ones (small δ or n) are
    // single-digit ms, where one pause would otherwise dominate the reading.
    val naive = TableFmt.bestOf(5, budgetNanos = 200_000_000L) {
      naiveCands.foreach(c => sink += LocalCost.naive(qs, c))
    }
    require(sink != BigInt(-1))
    Row(s"n=$n,δ=$delta,ℓ=$bits,d=$d", initNanos, fast.toDouble / m, naive.toDouble / mNaive)
  }

  /** Table 6: initialization and naive costs while varying n = 2¹..2¹⁰. */
  def table6(maxExp: Int = 10): Seq[(Int, Row, Row)] =
    (1 to maxExp).map { e =>
      val n = 1 << e
      (n, global(n = n), local(n = n, mNaive = 1))
    }

  def table6Table(rows: Seq[(Int, Row, Row)]): String =
    TableFmt.render("Table 6: initialization costs of GC and LC (varying n)",
      Seq("n", "IGC (ms)", "NGC (ms)", "ILC (ms)", "NLC (s)"),
      rows.map { case (n, g, l) =>
        Seq(n.toString, TableFmt.ms(g.initNanos.toDouble), TableFmt.ms(g.naiveNanosPerEval),
          TableFmt.ms(l.initNanos.toDouble), TableFmt.secs(l.naiveNanosPerEval))
      })

  /** The panels of Figs. 9 and 10: a–d sweep n, δ, ℓ and d. */
  val Panels: Seq[Char] = "abcd"

  /** One panel of Fig. 9 (`which` = "global": GC vs NGC) or Fig. 10
    * ("local": LC vs NLC). Each row's label names the swept value.
    */
  def sweep(which: String, panel: Char): Seq[Row] = {
    val isGlobal = which == "global"
    panel match {
      case 'a' =>
        val exps = if (isGlobal) Seq(0, 2, 4, 6, 8, 10) else Seq(0, 2, 4, 6, 8)
        exps.map(e => point(which, n = 1 << e, mNaiveLocal = 1).copy(label = s"n=2^$e"))
      case 'b' =>
        Seq(16L, 32L, 64L, 128L, 256L).map(dl => point(which, delta = dl).copy(label = s"δ=$dl"))
      case 'c' =>
        // Query extent scales with the resolution (a fixed real-world query
        // covers 2^(ℓ−10)× more cells per dimension at resolution ℓ), which
        // is what makes the naive scan infeasible at large ℓ.
        val bitsSeq = if (isGlobal) Seq(10, 12, 14, 16) else Seq(10, 12, 14)
        bitsSeq.map { b =>
          point(which, delta = 16L << (b - 10), bits = b, mNaiveLocal = 1).copy(label = s"ℓ=$b")
        }
      case 'd' =>
        Seq(2, 3, 4).map { dd =>
          // Keep per-query volume manageable for the naive scan as d grows.
          val dl = if (isGlobal) DefaultDelta else math.max(4L, 64L >> dd)
          point(which, delta = dl, d = dd, mNaiveLocal = 1).copy(label = s"d=$dd")
        }
      case other => throw new IllegalArgumentException(s"no panel $other")
    }
  }

  def sweepTable(which: String, panel: Char, rows: Seq[Row]): String = {
    val param = Map('a' -> "n", 'b' -> "δ", 'c' -> "ℓ", 'd' -> "d")(panel)
    val note = if (panel == 'd') " (gain column = paper's y-axis)" else ""
    val (fig, headers, naive, gain) =
      if (which == "global")
        ("9", Seq("param", "GC (µs/eval)", "NGC (µs/eval)", "gain"),
          TableFmt.micros _, (g: Double) => f"$g%.1fx")
      else
        ("10", Seq("param", "LC (µs/eval)", "NLC (ms/eval)", "gain"),
          TableFmt.ms _, (g: Double) => f"$g%.0fx")
    TableFmt.render(s"Fig $fig$panel: $which cost vs $param$note", headers,
      rows.map(r => Seq(r.label, TableFmt.micros(r.fastNanosPerEval),
        naive(r.naiveNanosPerEval), gain(r.gain))))
  }

  private def point(which: String, n: Int = DefaultN, delta: Long = DefaultDelta,
                    bits: Int = DefaultBits, d: Int = DefaultD,
                    mNaiveLocal: Int = 2): Row =
    which match {
      case "global" => global(n = n, delta = delta, bits = bits, d = d)
      case "local"  => local(n = n, delta = delta, bits = bits, d = d, mNaive = mNaiveLocal)
      case other    => throw new IllegalArgumentException(other)
    }
}
