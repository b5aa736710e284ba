package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Main

/** The paper's tables and figures (DESIGN.md § 5): one test per id of
  * `Main.PaperIds`, in `Main`'s order, named by the id. Each runs its
  * experiment as `Main <id>` does, printing the tables and the claim
  * lines, and fails if the id states no claim or any of its claims fails.
  * One id: sbt "bench/testOnly repro.bench.PaperBench -- -t fig14".
  */
class PaperBench extends AnyFunSuite {
  for (id <- Main.PaperIds) test(id) {
    val claims = Main.run(id)
    println(Main.report(claims))
    assert(claims.nonEmpty, s"$id states no claims")
    val failed = claims.filterNot(_.holds).map(_.statement)
    if (failed.nonEmpty) fail(failed.mkString(s"$id: ${failed.size} claims fail:\n  ", "\n  ", ""))
  }
}
