package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.BMTreeExp

/** Figure 12 of the paper (OSM): BMTree variants while varying the number
  * of learning queries n. Paper claims: GC/LC beat SP's reward time by
  * 1–2 orders of magnitude; all reward times grow with n (more sub-space
  * workloads to estimate); query costs stay close, GC slightly behind.
  */
class Fig12BMTreeQueriesBench extends AnyFunSuite {

  test("Fig 12: BMTree-SP/GC/LC vs number of learning queries") {
    val results = BMTreeExp.varyQueries()
    println(BMTreeExp.fig12Table(results))
    val qs = results.map(_._1)

    def reward(n: Int, v: String): Long =
      results.find(_._1 == n).get._2.find(_.variant == v).get.rewardNanos
    // SP is the slowest reward at every n vs GC, and vs LC for the
    // majority of settings (at our scaled-down sample sizes occasional
    // timer jitter can flip a single point).
    for (n <- qs)
      assert(reward(n, "BMTree-SP") > reward(n, "BMTree-GC"), s"n=$n")
    val lcWins = qs.count(n => reward(n, "BMTree-SP") > reward(n, "BMTree-LC"))
    assert(lcWins >= 3, s"LC beat SP only $lcWins/4 times")
  }
}
