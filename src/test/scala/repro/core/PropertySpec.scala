package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Randomized property checks over the core algebra (ScalaCheck). */
class PropertySpec extends AnyFunSuite {

  /** Run a ScalaCheck property and fail the ScalaTest test on violation. */
  private def check(p: Prop, minTests: Int = 80): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), p)
    assert(res.passed, res.status.toString)
  }

  private val dimsGen = Gen.choose(2, 4)
  private val bitsGen = Gen.choose(1, 5)
  private val seedGen = Gen.long

  private def rectOf(d: Int, l: Int, rng: java.util.Random): Rect = {
    val k = 1L << l
    val lo = new Array[Long](d)
    val hi = new Array[Long](d)
    var i = 0
    while (i < d) {
      val a = math.abs(rng.nextLong()) % k
      val b = math.abs(rng.nextLong()) % k
      lo(i) = math.min(a, b); hi(i) = math.max(a, b)
      i += 1
    }
    Rect(lo, hi)
  }

  private def pointOf(d: Int, l: Int, rng: java.util.Random): Array[Long] =
    Array.fill(d)(math.abs(rng.nextLong()) % (1L << l))

  test("property: curve values are within [0, 2^(d·l)) and invertible") {
    check(Prop.forAll(dimsGen, bitsGen, seedGen) { (d, l, seed) =>
      val rng = new java.util.Random(seed)
      val bmc = BMC.random(d, l, rng)
      val p = pointOf(d, l, rng)
      val v = bmc.value(p)
      v >= 0 && v < (1L << (d * l)) && TestRefs.inverse(bmc, v).toSeq == p.toSeq
    })
  }

  test("property: Hilbert values equal Skilling's branching transform") {
    check(Prop.forAll(Gen.choose(1, 6), Gen.choose(1, 31), seedGen) { (d, l0, seed) =>
      val l = math.min(l0, 62 / d)
      val rng = new java.util.Random(seed)
      val p = pointOf(d, l, rng)
      val raw = Array.fill(d)(rng.nextLong())
      val hc = new Hilbert(d, l)
      hc.value(p) == TestRefs.hilbertValue(d, l, p) && hc.value(raw) == TestRefs.hilbertValue(d, l, raw)
    }, minTests = 500)
  }

  test("property: monotonicity (Theorem 1)") {
    check(Prop.forAll(dimsGen, bitsGen, seedGen) { (d, l, seed) =>
      val rng = new java.util.Random(seed)
      val bmc = BMC.random(d, l, rng)
      val k = 1L << l
      val p1 = pointOf(d, l, rng)
      val p2 = p1.map(x => x + math.abs(rng.nextLong()) % (k - x))
      bmc.value(p1) <= bmc.value(p2)
    })
  }

  test("property: global closed form equals naive (Eq. 6 ≡ Eq. 5)") {
    check(Prop.forAll(dimsGen, bitsGen, seedGen, Gen.choose(1, 12)) { (d, l, seed, n) =>
      val rng = new java.util.Random(seed)
      val queries = Seq.fill(n)(rectOf(d, l, rng))
      val est = GlobalCost.Estimator(queries, d, l)
      val bmc = BMC.random(d, l, rng)
      est.cost(bmc) == GlobalCost.naive(queries, bmc)
    })
  }

  test("property: V = E + S (Eq. 3) and pattern edges are exact") {
    check(Prop.forAll(Gen.choose(2, 3), Gen.choose(2, 3), seedGen) { (d, l, seed) =>
      val rng = new java.util.Random(seed)
      val bmc = BMC.random(d, l, rng)
      val q = rectOf(d, l, rng)
      val e = LocalCost.edgesViaPatterns(q, bmc)
      e == TestRefs.exactEdges(q, bmc) &&
        e + LocalCost.sections(q, bmc) == q.volume
    }, minTests = 60)
  }

  test("property: pattern tables sum per-query edges over any workload") {
    check(Prop.forAll(Gen.choose(2, 3), Gen.choose(2, 4), seedGen, Gen.choose(1, 10)) {
      (d, l, seed, n) =>
        val rng = new java.util.Random(seed)
        val queries = Seq.fill(n)(rectOf(d, l, rng))
        val tables = LocalCost.PatternTables(queries, d, l)
        val bmc = BMC.random(d, l, rng)
        tables.edges(bmc) == queries.map(LocalCost.edgesViaPatterns(_, bmc)).sum
    }, minTests = 60)
  }

  test("property: rise/drop closed forms equal enumeration") {
    check(Prop.forAll(Gen.choose(0L, 200L), Gen.choose(0L, 200L), Gen.choose(1, 7)) {
      (a, b, k) =>
        val s = math.min(a, b); val e = math.max(a, b)
        LocalCost.riseCount(s, e, k) == TestRefs.exactRiseCount(s, e, k) &&
          LocalCost.dropCount(s, e, k) == TestRefs.exactDropCount(s, e, k)
    }, minTests = 200)
  }

  test("property: swap preserves BMC validity and bijectivity") {
    check(Prop.forAll(Gen.choose(2, 3), Gen.choose(2, 3), seedGen, Gen.choose(0, 1000)) {
      (d, l, seed, pos) =>
        val rng = new java.util.Random(seed)
        val bmc = BMC.random(d, l, rng)
        val swapped = bmc.swap(pos % (d * l - 1))
        val p = pointOf(d, l, rng)
        swapped.bitsPerDim.toSeq == bmc.bitsPerDim.toSeq &&
          TestRefs.inverse(swapped, swapped.value(p)).toSeq == p.toSeq
    })
  }

  test("property: Hilbert consecutive values are grid neighbours") {
    check(Prop.forAll(Gen.choose(1, 4), seedGen) { (l, seed) =>
      val hc = new Hilbert(2, l)
      val rng = new java.util.Random(seed)
      val k = 1L << l
      val byVal = (for (x <- 0L until k; y <- 0L until k) yield {
        val c = Array(x, y); hc.value(c) -> c
      }).toMap
      val v = math.abs(rng.nextLong()) % (k * k - 1)
      val c1 = byVal(v); val c2 = byVal(v + 1)
      math.abs(c1(0) - c2(0)) + math.abs(c1(1) - c2(1)) == 1
    }, minTests = 40)
  }

  test("property: ClusteredIndex accesses bounded by matches and ceil(N/B)+1") {
    check(Prop.forAll(Gen.choose(2, 4), seedGen, Gen.choose(1, 64)) { (l, seed, blockSize) =>
      val rng = new java.util.Random(seed)
      val n = 50 + rng.nextInt(200)
      val pts = Array.fill(n)(pointOf(2, l, rng))
      val idx = ClusteredIndex.build(pts, BMC.random(2, l, rng), blockSize)
      val q = rectOf(2, l, rng)
      val matches = pts.count(q.contains)
      val accesses = idx.blockAccesses(q)
      accesses <= matches && accesses <= (n + blockSize - 1) / blockSize &&
        (matches == 0) == (accesses == 0)
    }, minTests = 60)
  }
}
