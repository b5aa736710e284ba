package repro.perfbench

import scala.collection.mutable

/** One recorded call into the system; `parent` is the enclosing span's id, or -1. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Calls, total and self time of every span that shares a name. */
final case class Layer(name: String, calls: Int, totalNs: Long, selfNs: Long)

/** The clocks of one iteration.
  *
  * Phases (`choose`, `cluster`, `eval`) are always timed: they are end-to-end
  * metrics. Spans are recorded only when `traced`, one per wrapped call, each
  * with its parent so self time can be derived. Time spent in [[untimed]]
  * (a forced GC for the heap reading) is left out of the open phases and of
  * the iteration's wall time.
  */
final class Clock(val traced: Boolean) {
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private var excluded = 0L
  val phaseNs: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty

  def spans: Seq[Span] = recorded.toSeq

  /** Nanoseconds spent in [[untimed]] so far. */
  def excludedNs: Long = excluded

  def span[T](name: String)(body: => T): T =
    if (!traced) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        recorded += Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  def phase[T](name: String)(body: => T): T = {
    val ex0 = excluded
    val t0 = System.nanoTime()
    try span(s"phase.$name")(body)
    finally {
      val ns = System.nanoTime() - t0 - (excluded - ex0)
      phaseNs(name) = phaseNs.getOrElse(name, 0L) + ns
    }
  }

  /** [[phase]], whose time is the median of up to five runs of `body`. The
    * first run is the iteration's own; the others are untimed for the
    * iteration's wall time and stop before the runs total 1.5 s. A traced
    * iteration runs `body` once. Returns the first run's result.
    */
  def sampledPhase[T](name: String)(body: => T): T = {
    val before = phaseNs.getOrElse(name, 0L)
    val result = phase(name)(body)
    val samples = mutable.ArrayBuffer(phaseNs(name) - before)
    if (!traced) untimed {
      while (samples.size < 5 && samples.sum + samples.head <= 1500000000L) {
        val t0 = System.nanoTime()
        body
        samples += System.nanoTime() - t0
      }
    }
    phaseNs(name) = before + Stats.median(samples.map(_.toDouble).toSeq).toLong
    result
  }

  def untimed[T](body: => T): T = {
    val t0 = System.nanoTime()
    try body
    finally excluded += System.nanoTime() - t0
  }

  /** Per-name aggregate of the recorded spans; self time is a span's duration
    * minus the time its direct children cover.
    */
  def layers: Map[String, Layer] = {
    val childNs = new Array[Long](nextId)
    recorded.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    recorded.groupBy(_.name).map { case (n, ss) =>
      n -> Layer(n, ss.size, ss.map(_.durNs).sum, ss.map(s => s.durNs - childNs(s.id)).sum)
    }
  }
}

/** Named values one iteration (or one probe) reports, by metric name. */
final class Metrics {
  val values: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  def update(name: String, v: Double): Unit = values(name) = v
}

/** The correctness gate: every check counts as attempted, a false or
  * throwing check as failed.
  */
final class Gate {
  var attempted = 0
  var failed = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def check(name: String)(ok: => Boolean): Unit = {
    attempted += 1
    val passed =
      try ok
      catch { case e: Exception => failures += s"$name threw $e"; false }
    if (!passed) {
      failed += 1
      if (!failures.exists(_.startsWith(name))) failures += name
    }
  }

  /** Check that `got` equals `want`, naming both in the failure. */
  def equal[A](name: String)(got: => A, want: => A): Unit =
    check(name) {
      val (g, w) = (got, want)
      if (g != w) failures += s"$name: got $g, expected $w"
      g == w
    }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Nanoseconds per call of `f`: the median of five rounds, each repeating
    * `f` for at least 20 ms, after one unmeasured round.
    */
  def nsPerCall(f: => Any): Double =
    median((0 to 5).map { _ =>
      var calls = 0L
      val t0 = System.nanoTime()
      var t = t0
      while (t - t0 < 20000000L) { f; calls += 1; t = System.nanoTime() }
      (t - t0).toDouble / calls
    }.tail)

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  def ms(ns: Long): Double = ns / 1e6
}

/** Minimal JSON rendering for the result file. */
object Json {
  def render(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(render).mkString("[", ",", "]")
    case other               => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
