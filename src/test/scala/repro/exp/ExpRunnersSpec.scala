package repro.exp

import java.nio.file.Files
import repro.SparkSpec
import repro.core._
import repro.core.PiecewiseBMC.{Split, Tail}
import repro.exp.Defaults._
import repro.jobs.Main
import repro.learn.{BMTree, Quilts}

/** Smoke + invariant tests for the experiment runners the benches use.
  * Each runner runs at the constants `Main` runs it with; only the data
  * and query counts are small. Curves and block accesses are pinned, so a
  * change that alters what a runner computes fails here.
  */
class ExpRunnersSpec extends SparkSpec {

  test("TableFmt renders aligned tables") {
    val s = TableFmt.render("cap", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("== cap =="))
    assert(s.linesIterator.count(_.startsWith("|")) == 4)
  }

  test("TableFmt.timed measures elapsed time") {
    val (v, t) = TableFmt.timed { Thread.sleep(5); 42 }
    assert(v == 42 && t >= 5_000_000L)
  }

  test("TableFmt.bestOf counts a first run longer than the warm-up as a reading") {
    // One 250 ms run outlasts both the 60 ms warm-up and the 0.2 s budget.
    var calls = 0
    val nanos = TableFmt.bestOf { calls += 1; Thread.sleep(250) }
    assert(calls == 1 && nanos >= 250e6, s"$calls calls, $nanos ns")
  }

  test("global efficiency row: GC beats NGC at n=64") {
    val row = CostEfficiencyExp.measure(CostEfficiencyExp.Global, n = 64)
    assert(row.fastNanosPerEval > 0 && row.naiveNanosPerEval > 0)
    assert(row.gain > 1.0, s"expected speedup, got ${row.gain}")
  }

  test("local efficiency row: LC beats NLC at n=16") {
    val row = CostEfficiencyExp.measure(CostEfficiencyExp.Local, n = 16)
    assert(row.gain > 10.0, s"expected large speedup, got ${row.gain}")
  }

  test("GC evaluation time is roughly constant in n (Fig. 9a claim)") {
    val small = CostEfficiencyExp.measure(CostEfficiencyExp.Global, n = 4)
    val large = CostEfficiencyExp.measure(CostEfficiencyExp.Global, n = 256)
    // Naive grows ~64x; fast must grow far less (allow generous jitter).
    val naiveGrowth = large.naiveNanosPerEval / small.naiveNanosPerEval
    val fastGrowth = large.fastNanosPerEval / math.max(1.0, small.fastNanosPerEval)
    assert(naiveGrowth > 8.0, s"naive growth $naiveGrowth")
    assert(fastGrowth < naiveGrowth / 2, s"fast growth $fastGrowth vs naive $naiveGrowth")
  }

  test("BMTreeExp.run produces all three variants with sane metrics") {
    val rows = BMTreeExp.run(dist = "UNI", n = 5000, nQueries = 20, h = 3, rho = 0.05)
    assert(rows.map(_.variant) == Seq("BMTree-SP", "BMTree-GC", "BMTree-LC"))
    assert(rows.forall(_.blockAccesses >= 0))
    assert(rows.forall(r => r.rewardNanos <= r.learnNanos))
  }

  test("QueryExp.competitors returns the six paper competitors") {
    val data = SpatialGen.quantizeAll(SpatialGen.points("UNI", 3000, 1), DefaultBits)
    val qs = Workloads.squares("UNI", 20, DefaultEdge, DefaultBits, 2)
    val curves = QueryExp.competitors(data, qs)
    assert(curves.map(_.name) == Seq("LBMC", "BMTree", "QUILTS", "ZC", "HC", "LC"))
    // Table 7's learning times: the learners take time, the fixed curves none.
    assert(curves.take(3).forall(_.learnNanos > 0) && curves.drop(3).forall(_.learnNanos == 0L),
      curves.map(c => c.name -> c.learnNanos))
    // Pinned curves. BMTree splits on x at all 6 levels and orders every
    // leaf alike; HC has no structure to print but its shape.
    def bmtree(h: Int): PiecewiseBMC.Node =
      if (h == 0) Tail(TestRefs.fromString("YYYYYYYXYXYXYXYXYXYXYXYXYX")) else Split(0, bmtree(h - 1), bmtree(h - 1))
    val byName = curves.map(c => c.name -> c.curve).toMap
    assert(Seq("LBMC", "QUILTS", "ZC", "LC").map(byName(_).toString) == Seq(
      "YYXXXXYYXXYYYYXXYYXXXYXXYYXYYXYX", "XXXXXXXXXXXXXXXXYYYYYYYYYYYYYYYY",
      "YXYXYXYXYXYXYXYXYXYXYXYXYXYXYXYX", "XXXXXXXXXXXXXXXXYYYYYYYYYYYYYYYY"))
    assert(byName("BMTree").asInstanceOf[PiecewiseBMC].root == bmtree(6))
    val hc = byName("HC").asInstanceOf[Hilbert]
    assert((hc.d, hc.bits) == (2, DefaultBits))
    assert(QueryExp.evaluate(data, curves, qs) ==
      Seq("LBMC" -> 2.0, "BMTree" -> 3.75, "QUILTS" -> 3.7, "ZC" -> 2.45, "HC" -> 2.25, "LC" -> 3.7))
  }

  test("SP reward dominates GC/LC reward time on large samples (Fig. 11 shape)") {
    val rows = BMTreeExp.run(dist = "OSM", n = 50000, nQueries = 40, h = 4, rho = 0.2)
    val byName = rows.map(r => r.variant -> r.rewardNanos).toMap
    assert(byName("BMTree-SP") > byName("BMTree-GC"), byName.toString)
    assert(byName("BMTree-SP") > byName("BMTree-LC"), byName.toString)
  }

  test("BMTree reward abstraction: rewards order candidate dims") {
    // Full-height thin columns: putting an x bit on top keeps the y span
    // low in the merged value, so BMTree-GC's root split must be on x.
    val bits = 4
    val qs = (0 until 16 by 2).map(x => Rect.of2d(x, x, 0, 15))
    val res = BMTree.learn(qs, Array.empty, 2, bits, h = 1, rho = 0.0, BMTree.GCReward)
    assert(res.nodes == 1)
    res.curve.root match {
      case PiecewiseBMC.Split(dim, _, _) => assert(dim == 0, s"root split on dimension $dim")
      case tail => fail(s"no root split: $tail")
    }
  }

  test("layout runner: chosen and adversarial rows, cost order, Spark = driver blocks") {
    val (dist, n, bits) = ("UNI", 4000, DefaultBits)
    val (queries, rows) = LayoutExp.run(spark, dist, n, Files.createTempDirectory("layout-exp").toString)
    assert(rows.map(_.layout) == Seq("chosen", "adversarial"))
    // Pinned curves and block accesses; files touched follow the range
    // partitioner's sample and the core count, so they are not pinned.
    assert(rows.map(r => (r.curve.toString, r.blockAccesses)) == Seq(
      ("YYYYYYYYYYYYYYYYXXXXXXXXXXXXXXXX", 1.34), ("XXXYYYYYYXXXXXXXXXXXXXYYYYYYYYYY", 1.755)))
    val wc = WorkloadCost(queries.toSeq, 2, bits)
    assert(wc.cost(rows.head.curve) <= wc.cost(rows(1).curve))
    // The runner chooses among the QUILTS candidates alone: chosen is their
    // argmin and adversarial their argmax under the cost model.
    val cands = Quilts.candidates(queries.toSeq, 2, bits)
    val costs = cands.map(wc.cost)
    assert(cands.contains(rows.head.curve) && wc.cost(rows.head.curve) == costs.min, rows.head.curve)
    assert(cands.contains(rows(1).curve) && wc.cost(rows(1).curve) == costs.max, rows(1).curve)
    // The runner's data: seed 1, quantized as SpatialData does.
    val cells = SpatialGen.quantizeAll(SpatialGen.points(dist, n, 1), bits)
    for (r <- rows)
      assert(r.blockAccesses == ClusteredIndex.build(cells, r.curve, DefaultBlock).avgBlockAccesses(queries.toSeq),
        r.layout)
  }

  test("Main rejects an unknown experiment and lists every valid id") {
    val e = intercept[IllegalArgumentException](Main.main(Array("fig99")))
    val ids = Seq("table6", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
      "fig16", "fig17", "table7", "layout", "all")
    assert(ids.forall(id => e.getMessage.contains(s"$id,") || e.getMessage.endsWith(id)), e.getMessage)
  }

  test("Main layout rejects invalid arguments before Spark starts") {
    // Only invalid calls: a valid one would stop the suites' shared session.
    val dir = Files.createTempDirectory("layout-args").toString
    for (args <- Seq(Seq("XYZ"), Seq("OSM", "0", dir), Seq("OSM", "-5", dir), Seq("UNI", "ten"),
                     Seq("OSM", "3000000000"), Seq("OSM", "100", dir, "extra"))) {
      val e = intercept[IllegalArgumentException](Main.main(("layout" +: args).toArray))
      assert(e.getMessage.contains("usage: layout [dist] [n] [outDir]"), e.getMessage)
    }
    assert(new java.io.File(dir).list().isEmpty)
  }
}
