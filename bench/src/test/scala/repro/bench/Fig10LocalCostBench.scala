package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.CostEfficiencyExp

/** Figure 10 of the paper: running time of local cost estimation — LC
  * (pattern tables, Alg. 2, O(1) per BMC) vs NLC (curve-segment scan,
  * O(V) per query). Paper claim: LC wins by up to five orders of
  * magnitude.
  */
class Fig10LocalCostBench extends AnyFunSuite {

  private def run(panel: Char): Seq[CostEfficiencyExp.Row] = {
    val rows = CostEfficiencyExp.sweep(CostEfficiencyExp.Local, panel)
    println(CostEfficiencyExp.sweepTable(CostEfficiencyExp.Local, panel, rows))
    rows
  }

  test("Fig 10a: varying the number of queries n") {
    val rows = run('a')
    assert(rows.last.gain > 1000.0, s"gain ${rows.last.gain}")
    assert(rows.last.gain > rows.head.gain, s"gains: ${rows.map(_.gain)}")
  }

  test("Fig 10b: varying the query edge length δ") {
    val rows = run('b')
    // NLC scans V = δ² cells per query: it must grow steeply with δ while
    // LC stays flat.
    assert(rows.last.naiveNanosPerEval > rows.head.naiveNanosPerEval * 16,
      s"NLC: ${rows.map(_.naiveNanosPerEval)}")
    val lc = rows.map(_.fastNanosPerEval)
    assert(lc.max < math.max(lc.min, 1000.0) * 50, s"LC should be flat-ish in δ: $lc")
  }

  test("Fig 10c: varying the number of bits ℓ") {
    val rows = run('c')
    // The scan volume grows 4× per ℓ step — NLC explodes, LC does not;
    // this is why the paper cannot run NLC beyond ℓ=18.
    assert(rows.last.naiveNanosPerEval > rows.head.naiveNanosPerEval * 8,
      s"NLC: ${rows.map(_.naiveNanosPerEval)}")
    assert(rows.forall(_.gain > 100.0), rows.map(_.gain).toString)
  }

  test("Fig 10d: varying the dimensionality d") {
    val rows = run('d')
    assert(rows.forall(_.gain > 10.0), rows.map(_.gain).toString)
  }
}
