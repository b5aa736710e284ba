package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable

/** Runs one workload and writes its result file.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --out FILE --work DIR
  *
  * Set-up (inputs, sessions, one scaled-down warm-up pass) runs at least
  * three times, and again while the rounds total under three seconds (at
  * most 15 rounds); `setup_s` is the median. Timed iterations then repeat until the next one
  * would end after `--seconds` (at least one). End-to-end metrics are medians
  * over untraced iterations; `choose_s` is itself the median of repeated
  * runs of the choose step (see [[Clock.sampledPhase]]). With `--trace 1`
  * iterations alternate untraced and traced, at least untraced, traced,
  * untraced, so warm-up left in the first iteration does not pass for
  * negative tracing overhead. Per-layer metrics, JVM counters included, come
  * from the traced iterations; traced minus untraced wall time is the
  * tracing overhead.
  */
object Main {
  private val MinSetupRounds = 3
  private val MaxSetupRounds = 15
  private val SetupBudgetNs = 3000000000L
  private val MaxIterations = 200

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = opts("workload")
    val seed = opts("seed").toLong
    val budgetNs = (opts("seconds").toDouble * 1e9).toLong
    val trace = opts("trace") == "1"
    val work = new File(opts("work"))
    val make: Long => Bench = workload match {
      case "cluster-osm-100k" => new ClusterOsm(_)
      case "learn-4x2"        => new Learn4x2(_)
      case "score-d3"         => new ScoreD3(_)
      case "spark-layout"     => new SparkLayout(_, work)
      case other              => Console.err.println(s"unknown workload: $other"); sys.exit(2)
    }

    val gate = new Gate
    var operations = 0
    var failedOps = 0
    val result = mutable.LinkedHashMap[String, Any]("workload" -> workload, "seed" -> seed, "trace" -> trace)
    val endToEnd = mutable.ArrayBuffer.empty[Metrics]
    val traced = mutable.ArrayBuffer.empty[Metrics]
    val jvm = mutable.ArrayBuffer.empty[(Long, Long, Long)]
    val variedInSession = mutable.LinkedHashMap.empty[String, Seq[String]]
    var lastSpans: Seq[Span] = Nil
    var lastLayers: Map[String, Layer] = Map.empty
    var bench: Bench = null
    val setup = new Setup
    try {
      val setupNs = mutable.ArrayBuffer.empty[Long]
      while (setupNs.size < MinSetupRounds ||
             (setupNs.sum < SetupBudgetNs && setupNs.size < MaxSetupRounds)) {
        if (bench != null) bench.close()
        setup.ms.clear()
        val t0 = System.nanoTime()
        operations += 1
        bench = make(seed)
        bench.setup(setup)
        bench.warmUp()
        setupNs += System.nanoTime() - t0
      }
      result("env") = Jvm.env ++ Map("spark_master" -> bench.sparkMaster, "seed" -> seed.toString,
        "git" -> sys.props.getOrElse("perfbench.git", "unknown"),
        "source_sha256" -> sys.props.getOrElse("perfbench.source", "unknown"))
      Console.err.println(s"[perfbench] $workload seed=$seed set-up ${setupNs.map(_ / 1e9).mkString(", ")} s")

      var exact: Map[String, String] = null
      val start = System.nanoTime()
      var lastNs = 0L
      var i = 0
      while (i == 0 || (trace && i < 3) ||
             (System.nanoTime() - start + lastNs <= budgetNs && i < MaxIterations)) {
        val c = new Clock(trace && i % 2 == 1)
        val m = new Metrics
        // Every iteration starts from an empty young generation.
        Jvm.usedHeapMbAfterGc()
        val (gc0, gcMs0, alloc0) = Jvm.counters()
        val forced0 = Jvm.forcedGc
        val t0 = System.nanoTime()
        operations += 1
        val out = c.span("iteration")(bench.iteration(c, m))
        lastNs = System.nanoTime() - t0
        val (gc1, gcMs1, alloc1) = Jvm.counters()
        val forced = (Jvm.forcedGc._1 - forced0._1, Jvm.forcedGc._2 - forced0._2)
        m("wall_s") = (lastNs - c.excludedNs) / 1e9
        c.phaseNs.foreach { case (p, ns) => m(s"${p}_s") = ns / 1e9 }
        Console.err.println(f"[perfbench] iteration ${i + 1}%d${if (c.traced) " (traced)" else ""}: " +
          m.values.filter(_._1.endsWith("_s")).map { case (k, v) => f"$k $v%.3f" }.mkString(", "))
        if (exact == null) exact = out
        else {
          val (session, fixed) = out.partition(kv => bench.sessionDependent(kv._1))
          gate.equal(s"iteration ${i + 1} repeats the exact outputs of iteration 1")(
            fixed, exact -- bench.sessionDependent)
          session.foreach { case (k, v) =>
            if (v != exact(k)) variedInSession(k) = variedInSession.getOrElse(k, Seq(exact(k))) :+ v
          }
        }
        if (c.traced) {
          traced += m
          lastSpans = c.spans
          lastLayers = c.layers
          jvm += ((gc1 - gc0 - forced._1, gcMs1 - gcMs0 - forced._2, alloc1 - alloc0))
        } else endToEnd += m
        i += 1
      }
      Console.err.println(s"[perfbench] $workload: ${endToEnd.size} untraced, ${traced.size} traced iterations")
      bench.check(gate)

      // End-to-end names are bare (`wall_s`); per-layer names carry their
      // module (`ClusteredIndex.eval_ms`).
      val metrics = medians(endToEnd.toSeq).filter(!_._1.contains('.'))
      metrics("setup_s") = Stats.median(setupNs.map(_ / 1e9).toSeq)
      if (trace) {
        val tracedMedians = medians(traced.toSeq)
        val perLayer = tracedMedians.filter(_._1.contains('.'))
        val probe = new Metrics
        bench.probe(probe)
        perLayer ++= probe.values
        setup.ms.foreach { case (k, v) => perLayer(s"${k}_ms") = v }
        val k = jvm.size.toDouble
        perLayer("jvm.gc_count") = jvm.map(_._1).sum / k
        perLayer("jvm.gc_ms") = jvm.map(_._2).sum / k
        perLayer("jvm.alloc_mb") = jvm.map(_._3).sum / k / (1024 * 1024)
        perLayer("trace.untraced_wall_s") = metrics("wall_s")
        perLayer("trace.traced_wall_s") = tracedMedians("wall_s")
        perLayer("trace.overhead_s") = tracedMedians("wall_s") - metrics("wall_s")
        perLayer("trace.spans") = lastSpans.size.toDouble
        result("per_layer") = perLayer
        result("layers") = lastLayers.values.toSeq.sortBy(-_.totalNs).map(l => Map(
          "name" -> l.name, "calls" -> l.calls, "total_ms" -> Stats.ms(l.totalNs), "self_ms" -> Stats.ms(l.selfNs)))
        result("spans") = lastSpans.map(s => Map(
          "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs))
      }
      result("metrics") = metrics
      result("exact") = exact
      result("varied_within_run") = variedInSession
      result("iterations") = Map("untraced" -> endToEnd.size, "traced" -> traced.size)
    } catch {
      case e: Exception =>
        failedOps += 1
        gate.failures += s"operation threw $e"
        e.printStackTrace()
    } finally if (bench != null) bench.close()

    val attempted = operations + gate.attempted
    val failed = failedOps + gate.failed
    result("attempted") = attempted
    result("failed") = failed
    result("error_rate") = failed.toDouble / attempted
    result("failures") = gate.failures.toSeq
    Files.write(new File(opts("out")).toPath, Json.render(result).getBytes(StandardCharsets.UTF_8))
    gate.failures.foreach(f => Console.err.println(s"[perfbench] FAILED: $f"))
    // Exit explicitly: a stopped SparkSession can leave non-daemon threads.
    sys.exit(if (failed > 0) 1 else 0)
  }

  /** Median of each metric over the iterations that reported it. */
  private def medians(ms: Seq[Metrics]): mutable.LinkedHashMap[String, Double] = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    ms.flatMap(_.values.keys).distinct.foreach { k =>
      out(k) = Stats.median(ms.flatMap(_.values.get(k)))
    }
    out
  }
}
