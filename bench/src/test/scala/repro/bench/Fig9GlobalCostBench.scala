package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.CostEfficiencyExp

/** Figure 9 of the paper: running time of global cost estimation — GC
  * (Eq. 6, O(1) per BMC) vs NGC (Eq. 5, O(n) per BMC) — varying n, δ, ℓ,
  * and d. Paper claim: GC consistently faster, up to >24× (Fig. 9d).
  */
class Fig9GlobalCostBench extends AnyFunSuite {

  private def run(panel: Char): Seq[CostEfficiencyExp.Row] = {
    val rows = CostEfficiencyExp.sweep(CostEfficiencyExp.Global, panel)
    println(CostEfficiencyExp.sweepTable(CostEfficiencyExp.Global, panel, rows))
    rows
  }

  test("Fig 9a: varying the number of queries n") {
    val rows = run('a')
    // GC flat in n, NGC linear: the gain at n=1024 must dwarf that at n=1.
    assert(rows.last.gain > rows.head.gain * 4,
      s"gains: ${rows.map(_.gain)}")
  }

  test("Fig 9b: varying the query edge length δ") {
    val rows = run('b')
    // Neither GC nor NGC depends on δ: times stay within a loose band.
    val f = rows.map(_.naiveNanosPerEval)
    assert(f.max < f.min * 10, s"NGC should be flat in δ: $f")
  }

  test("Fig 9c: varying the number of bits ℓ") {
    val rows = run('c')
    // Both scale with ℓ; GC stays faster throughout.
    assert(rows.forall(_.gain > 1.0), rows.map(_.gain).toString)
  }

  test("Fig 9d: varying the dimensionality d") {
    val rows = run('d')
    assert(rows.forall(_.gain > 2.0), rows.map(_.gain).toString)
  }
}
