package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.QueryExp

/** Figure 16 of the paper (OSM): block accesses while varying the query
  * aspect ratio at fixed area. Paper claims: LBMC's advantage is largest
  * on stretched queries; at 1:1 LBMC, QUILTS, and ZC are close (all
  * approximate a square-friendly recursive shape); LC suits 16:1.
  */
class Fig16AspectRatioBench extends AnyFunSuite {

  test("Fig 16: block accesses vs query aspect ratio") {
    val results = QueryExp.varyAspectRatio()
    println(QueryExp.fig16Table(results))

    for ((label, scores) <- results) {
      val byName = scores.toMap
      val best = scores.map(_._2).min
      // The workload-aware learned curve adapts to every stretch direction.
      assert(byName("LBMC") <= best * 1.5, s"ratio $label: $scores")
    }
    // At extreme ratios the learned curve must beat the shape-oblivious ZC
    // (the whole point of query-aware curve learning).
    val extremes = results.filter(r => r._1 == "16:1" || r._1 == "1:16")
    val zcWins = extremes.count { case (_, s) =>
      val m = s.toMap; m("LBMC") <= m("ZC")
    }
    assert(zcWins >= 1, "LBMC should beat ZC on at least one extreme ratio")
  }
}
