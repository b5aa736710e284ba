package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.QueryExp

/** Figure 17 of the paper (OSM): block accesses while varying the query
  * edge length. Paper claims: costs grow with the edge length for every
  * curve; LBMC outperforms the competitors consistently.
  */
class Fig17EdgeLengthBench extends AnyFunSuite {

  test("Fig 17: block accesses vs query edge length") {
    val results = QueryExp.varyEdge()
    println(QueryExp.fig17Table(results))
    val names = results.head._2.map(_._1)

    // Larger queries cost more for every curve.
    for (name <- names) {
      val series = results.map(_._2.toMap.apply(name))
      assert(series.last > series.head, s"$name: $series")
    }
    // LBMC competitive with the best at every edge length.
    for ((e, scores) <- results) {
      val best = scores.map(_._2).min
      assert(scores.toMap.apply("LBMC") <= best * 1.5, s"edge=$e: $scores")
    }
  }
}
