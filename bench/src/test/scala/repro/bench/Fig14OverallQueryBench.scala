package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.QueryExp

/** Figure 14 of the paper: average block accesses of LBMC, BMTree,
  * QUILTS, ZC, HC, and LC on all four datasets.
  *
  * Paper claims: LBMC wins on every dataset (e.g. SKEW: 111 vs BMTree's
  * 3,084 and QUILTS's 674); LC is the worst overall because it destroys
  * locality; no deterministic curve wins everywhere.
  */
class Fig14OverallQueryBench extends AnyFunSuite {

  test("Fig 14: block accesses of all curves on all datasets") {
    val results = QueryExp.overall()
    println(QueryExp.fig14Table(results))

    for ((dist, scores) <- results) {
      val byName = scores.toMap
      // LBMC must be competitive with the best curve on every dataset and
      // strictly better than the lexicographic curve (the paper's loser).
      val best = scores.map(_._2).min
      assert(byName("LBMC") <= best * 1.35,
        s"$dist: LBMC=${byName("LBMC")} vs best=$best (${scores})")
      assert(byName("LBMC") <= byName("LC"),
        s"$dist: LBMC=${byName("LBMC")} vs LC=${byName("LC")}")
    }
    // On the skewed dataset the learned curves must beat plain ZC or at
    // least match it (query-aware learning pays off most under skew).
    val skew = results.find(_._1 == "SKEW").get._2.toMap
    assert(skew("LBMC") <= skew("ZC") * 1.05,
      s"SKEW: LBMC=${skew("LBMC")} ZC=${skew("ZC")}")
  }
}
