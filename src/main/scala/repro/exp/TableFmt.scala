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

  /** Format a duration in the unit that keeps 3 significant digits. */
  def ms(nanos: Double): String = f"${nanos / 1e6}%.3f"

  def micros(nanos: Double): String = f"${nanos / 1e3}%.2f"

  def secs(nanos: Double): String = f"${nanos / 1e9}%.3f"

  /** Time a thunk, returning (result, nanos). */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }

  /** Best-of-`reps` timing of a side-effect-free thunk (JIT warmup). Runs
    * stop early once they total `budgetNanos`, so a costly thunk runs once.
    */
  def bestOf[A](reps: Int, budgetNanos: Long = Long.MaxValue)(f: => A): Long = {
    var best = Long.MaxValue
    var spent = 0L
    var i = 0
    while (i < reps && spent < budgetNanos) {
      val (_, t) = timed(f)
      if (t < best) best = t
      spent += t
      i += 1
    }
    best
  }
}
