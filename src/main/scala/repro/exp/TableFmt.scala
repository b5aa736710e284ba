package repro.exp

/** Plain-text table formatting for bench/job output (EXPERIMENTS.md
  * records these rows next to the paper's).
  */
object TableFmt {

  /** Render an aligned table with a caption. */
  def render(caption: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"\n== $caption ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n") + "\n"
  }

  /** A duration in nanoseconds as milliseconds with three decimals. */
  def ms(nanos: Double): String = f"${nanos / 1e6}%.3f"

  /** A duration in nanoseconds as microseconds with two decimals. */
  def micros(nanos: Double): String = f"${nanos / 1e3}%.2f"

  /** A duration in nanoseconds as seconds with three decimals. */
  def secs(nanos: Double): String = f"${nanos / 1e9}%.3f"

  /** Time a thunk, returning (result, nanos). */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }

  /** Nanoseconds per run of `f` by the one timing rule of the cost
    * experiments: after a 60 ms warm-up of `f`, each reading repeats `f`
    * until it lasts 1 ms and divides by the runs, and the result is the
    * best of 5 readings, stopping early once they total 0.2 s. A reading
    * of a few µs would be at the mercy of one pause. A first run that
    * alone outlasts the warm-up is its own warm-up and counts as the
    * first reading, so a costly `f` is not run once for nothing.
    */
  def bestOf[A](f: => A): Double = {
    val start = System.nanoTime()
    f
    val first = System.nanoTime() - start
    var best = Double.MaxValue
    var spent = 0L
    var i = 0
    if (first >= 60_000_000L) { best = first.toDouble; spent = first; i = 1 }
    else while (System.nanoTime() < start + 60_000_000L) f
    while (i < 5 && spent < 200_000_000L) {
      val t0 = System.nanoTime()
      var runs = 0
      var t = 0L
      while (t < 1_000_000L) { f; runs += 1; t = System.nanoTime() - t0 }
      best = math.min(best, t.toDouble / runs)
      spent += t
      i += 1
    }
    best
  }
}
