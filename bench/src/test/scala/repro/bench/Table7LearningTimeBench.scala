package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.QueryExp

/** Table 7 of the paper: SFC learning time (seconds) vs dataset
  * cardinality N, for the BMTree (SP reward, as released), LBMC, and
  * QUILTS (with the paper's cost estimation).
  *
  * Paper reference values (seconds):
  *   N:      10⁴  10⁵  10⁶  10⁷  10⁸
  *   BMTree:  54   55   61   99  551
  *   LBMC:    15   15   15   15   15
  *   QUILTS: 0.2  0.2  0.2  0.2  0.2
  */
class Table7LearningTimeBench extends AnyFunSuite {

  test("Table 7: SFC learning time vs N") {
    val rows = QueryExp.learningTime()
    println(QueryExp.table7Table(rows))

    // Shape claims: BMTree's time grows with N; LBMC's stays flat; QUILTS
    // is the fastest by a wide margin.
    val bmTimes = rows.map(_.bmtreeNanos)
    val lbTimes = rows.map(_.lbmcNanos)
    val quTimes = rows.map(_.quiltsNanos)
    assert(bmTimes.last > bmTimes.head * 2,
      s"BMTree learning should scale with N: $bmTimes")
    assert(lbTimes.max < lbTimes.min * 5,
      s"LBMC learning should be constant in N: $lbTimes")
    assert(quTimes.max < lbTimes.min,
      "QUILTS should be faster than LBMC (it scores only a handful of curves)")
  }
}
