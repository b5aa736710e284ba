package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.CostEfficiencyExp

/** Table 6 of the paper: initialization costs of GC and LC (IGC / ILC)
  * next to the naive per-evaluation costs (NGC / NLC), varying n = 2¹..2¹⁰.
  *
  * Paper reference values (ℓ=10, δ=256, d=2; NGC in ms, NLC in s):
  *   NGC: 0.03 0.05 0.10 0.18 0.36 0.70 1.50 2.96 5.37 10.86
  *   NLC: 0.01 0.06 0.18 0.93 1.93 3.03 6.31 9.21 20.98 48.22
  * (IGC/ILC rows are reported but smaller than NGC/NLC.)
  */
class Table6InitCostsBench extends AnyFunSuite {

  test("Table 6: IGC/NGC/ILC/NLC vs n") {
    val rows = CostEfficiencyExp.table6()
    println(CostEfficiencyExp.table6Table(rows))

    // Shape claims of the table: both naive costs grow with n, and the
    // init scans stay cheaper than the corresponding naive evaluation at
    // the largest n.
    val ngc = rows.map(_._2.naiveNanosPerEval)
    val nlc = rows.map(_._3.naiveNanosPerEval)
    assert(ngc.last > ngc.min * 4, s"NGC should grow with n: $ngc")
    assert(nlc.last > nlc.min * 4, s"NLC should grow with n: $nlc")
    assert(rows.last._2.initNanos < ngc.last * 10, "IGC comparable to one NGC pass")
    assert(rows.last._3.initNanos < nlc.last.toLong,
      "ILC must undercut a single naive local evaluation at n=1024")
  }
}
