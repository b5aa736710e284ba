package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.BMTreeExp

/** Figure 13 of the paper (SKEW): reward time vs query cost trade-off
  * while varying the SP sampling rate ρ and the partitioning depth h.
  * Paper claims: larger h → lower query cost but longer reward time;
  * BMTree-LC sits at the bottom-left (fast AND query-efficient); reducing
  * ρ speeds SP up but hurts its query cost.
  */
class Fig13SamplingDepthBench extends AnyFunSuite {

  test("Fig 13: varying sampling rate ρ and depth h") {
    val (sp, gc, lc) = BMTreeExp.varySamplingAndDepth()
    println(BMTreeExp.fig13Table(sp, gc, lc))

    // SP reward time grows with ρ at fixed h.
    val spAtH6 = sp.filter(_._2 == 6).sortBy(_._1)
    assert(spAtH6.last._3.rewardNanos > spAtH6.head._3.rewardNanos,
      "SP reward time should grow with the sampling rate")
    // LC at the default depth is faster than SP at the same depth with the
    // largest sampling rate (the bottom-left claim).
    val lcAtH6 = lc.find(_._1 == 6).get._2
    assert(lcAtH6.rewardNanos < spAtH6.last._3.rewardNanos)
    // LC's query cost is competitive with SP's best at the same depth.
    val spBest = spAtH6.map(_._3.blockAccesses).min
    assert(lcAtH6.blockAccesses < math.max(1.0, spBest) * 3,
      s"LC=${lcAtH6.blockAccesses} vs SP best=$spBest")
  }
}
