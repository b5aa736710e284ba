package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.BMTreeExp

/** Figure 11 of the paper (OSM): BMTree reward-calculation time and query
  * cost when the built-in sampled-data reward (SP) is replaced by GC / LC,
  * varying the dataset cardinality N.
  *
  * Paper claims: SP's reward time grows linearly with N (7+ hours at
  * N=10⁸) while GC/LC stay constant (57 s / 737 s); block accesses of the
  * three variants are similar at every N.
  */
class Fig11BMTreeCardinalityBench extends AnyFunSuite {

  test("Fig 11: BMTree-SP/GC/LC vs dataset cardinality N") {
    val results = BMTreeExp.varyCardinality()
    println(BMTreeExp.fig11Table(results))

    def reward(n: Int, v: String): Long =
      results.find(_._1 == n).get._2.find(_.variant == v).get.rewardNanos
    // SP reward time grows with N; GC/LC do not (allow generous jitter).
    assert(reward(1_000_000, "BMTree-SP") > reward(10_000, "BMTree-SP") * 3,
      "SP reward time should grow with N")
    assert(reward(1_000_000, "BMTree-GC") < reward(10_000, "BMTree-GC") * 10,
      "GC reward time should not scale with N")
    assert(reward(1_000_000, "BMTree-LC") < reward(10_000, "BMTree-LC") * 10,
      "LC reward time should not scale with N")
    // At the largest N, SP dominates both replacements (the 36x/474x claim).
    assert(reward(1_000_000, "BMTree-SP") > reward(1_000_000, "BMTree-GC"))
    // Query costs of the three variants are in the same ballpark.
    val ba = results.last._2.map(_.blockAccesses)
    assert(ba.max < math.max(1.0, ba.min) * 4, s"block accesses diverged: $ba")
  }
}
