package repro.learn

import org.scalatest.funsuite.AnyFunSuite

/** The pure-Scala MLP/Adam substrate behind the DQN. */
class MLPSpec extends AnyFunSuite {

  test("forward pass has the right output arity") {
    val net = new MLP(4, 8, 3, seed = 1)
    assert(net.forward(Array(0.1, 0.2, 0.3, 0.4)).length == 3)
  }

  test("forward pass is deterministic in the seed") {
    val a = new MLP(3, 5, 2, seed = 7)
    val b = new MLP(3, 5, 2, seed = 7)
    val x = Array(0.5, -0.2, 0.9)
    assert(a.forward(x).toSeq == b.forward(x).toSeq)
  }

  test("different seeds give different networks") {
    val a = new MLP(3, 5, 2, seed = 7)
    val b = new MLP(3, 5, 2, seed = 8)
    val x = Array(0.5, -0.2, 0.9)
    assert(a.forward(x).toSeq != b.forward(x).toSeq)
  }

  test("input arity is validated") {
    val net = new MLP(4, 8, 3, seed = 1)
    intercept[IllegalArgumentException](net.forward(Array(1.0)))
  }

  test("training reduces the loss on a fixed regression target") {
    val net = new MLP(2, 16, 1, seed = 3, lr = 1e-2)
    val samples = Seq(
      (Array(0.0, 0.0), 0, 0.1), (Array(0.0, 1.0), 0, 0.9),
      (Array(1.0, 0.0), 0, 0.9), (Array(1.0, 1.0), 0, 0.1))
    val first = net.trainBatch(samples)
    var last = first
    for (_ <- 1 to 500) last = net.trainBatch(samples)
    assert(last < first / 10, s"loss went $first -> $last")
  }

  test("MLP learns XOR (nonlinear separability)") {
    val net = new MLP(2, 16, 1, seed = 5, lr = 1e-2)
    val samples = Seq(
      (Array(0.0, 0.0), 0, 0.0), (Array(0.0, 1.0), 0, 1.0),
      (Array(1.0, 0.0), 0, 1.0), (Array(1.0, 1.0), 0, 0.0))
    for (_ <- 1 to 2000) net.trainBatch(samples)
    for ((x, _, y) <- samples)
      assert(math.abs(net.forward(x)(0) - y) < 0.2, s"${x.toSeq} -> $y")
  }

  test("training only the chosen output leaves other outputs nearly intact") {
    val net = new MLP(2, 8, 3, seed = 9, lr = 1e-3)
    val x = Array(0.3, 0.7)
    val before = net.forward(x).clone()
    // Single gradient step on output 1 only.
    net.trainBatch(Seq((x, 1, before(1) + 5.0)))
    val after = net.forward(x)
    // Output 1 moved toward the target...
    assert(after(1) > before(1))
    // ...and the others moved at most via shared hidden weights (small lr).
    assert(math.abs(after(0) - before(0)) < 0.1)
    assert(math.abs(after(2) - before(2)) < 0.1)
  }

  test("numeric gradient check on a tiny network") {
    // Compare the backprop update direction of every weight with a
    // central finite-difference estimate of dLoss/dw.
    val x = Array(0.4, -0.3)
    val target = 0.7
    def loss(net: MLP): Double = {
      val o = net.forward(x)(0) - target
      o * o
    }
    val eps = 1e-6
    val net = new MLP(2, 4, 1, seed = 11)
    val pert = new MLP(2, 4, 1, seed = 11)
    pert.copyWeightsFrom(net)
    def numGrad(w: Array[Array[Double]], i: Int, o: Int): Double = {
      val w0 = w(i)(o)
      w(i)(o) = w0 + eps
      val up = loss(pert)
      w(i)(o) = w0 - eps
      val down = loss(pert)
      w(i)(o) = w0
      (up - down) / (2 * eps)
    }
    val grads = Seq(pert.w1, pert.w2).map(w => w.indices.map(i => w(i).indices.map(numGrad(w, i, _))))
    val before = Seq(net.w1, net.w2).map(_.map(_.clone))
    // One step of a fresh Adam moves each weight by about lr against the
    // sign of its gradient (Adam normalizes the magnitude).
    net.trainBatch(Seq((x, 0, target)))
    for ((w, layer) <- Seq(net.w1, net.w2).zipWithIndex) {
      var checked = 0
      for (i <- w.indices; o <- w(i).indices) {
        val g = grads(layer)(i)(o)
        if (math.abs(g) > 1e-4) {
          val moved = w(i)(o) - before(layer)(i)(o)
          assert(math.signum(moved) == -math.signum(g),
            s"w${layer + 1}($i)($o): numeric grad $g but weight moved $moved")
          checked += 1
        }
      }
      assert(checked > 0, s"no w${layer + 1} weight has a non-negligible gradient")
    }
  }

  /** `new MLP` and the row-major reference after the same `trainBatch`
    * steps agree bit for bit on every weight and every output.
    */
  private def assertMatchesReference(inputs: Int, hidden: Int, outputs: Int, seed: Long,
                                     sample: java.util.Random => Array[Double]): Unit = {
    val net = new MLP(inputs, hidden, outputs, seed)
    val ref = new RowMajorMLP(inputs, hidden, outputs, seed)
    def bits(xs: Iterable[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToRawLongBits).toSeq
    def assertSameWeights(step: Int): Unit = {
      assert(bits(net.w1.flatten) == bits(ref.w1.transpose.flatten), s"w1 after $step steps")
      assert(bits(net.w2.flatten) == bits(ref.w2.transpose.flatten), s"w2 after $step steps")
      assert(bits(net.b1) == bits(ref.b1), s"b1 after $step steps")
      assert(bits(net.b2) == bits(ref.b2), s"b2 after $step steps")
    }
    assertSameWeights(0)
    val rng = new java.util.Random(seed + 100)
    for (step <- 1 to 300) {
      val batch = Seq.fill(32)((sample(rng), rng.nextInt(outputs), rng.nextGaussian()))
      for ((x, _, _) <- batch) assert(bits(net.forward(x)) == bits(ref.forward(x)), s"outputs at step $step")
      assert(java.lang.Double.doubleToRawLongBits(net.trainBatch(batch)) ==
        java.lang.Double.doubleToRawLongBits(ref.trainBatch(batch)), s"loss at step $step")
      assertSameWeights(step)
    }
  }

  test("input-major MLP equals the row-major reference bit for bit on one-hot inputs") {
    // LBMC's shape at d = 2, L = 32: one of each rank's d inputs is set.
    val (d, rankCount) = (2, 32)
    assertMatchesReference(d * rankCount, 64, rankCount - 1, seed = 21, rng => {
      val x = new Array[Double](d * rankCount)
      for (r <- 0 until rankCount) x(r * d + rng.nextInt(d)) = 1.0
      x
    })
  }

  test("input-major MLP equals the row-major reference bit for bit on dense inputs with exact zeros") {
    assertMatchesReference(12, 16, 5, seed = 22, rng =>
      Array.fill(12)(rng.nextInt(4) match {
        case 0 => 0.0
        case 1 => -0.0
        case _ => rng.nextGaussian()
      }))
  }

  test("copyWeightsFrom makes networks identical") {
    // Train the source first, so its biases are no longer all zero and a
    // sync that skipped one layer's biases would show.
    val a = new MLP(3, 6, 2, seed = 1)
    val rng = new java.util.Random(3)
    for (_ <- 0 until 5)
      a.trainBatch(Seq.fill(4)((Array.fill(3)(rng.nextGaussian()), rng.nextInt(2), rng.nextGaussian())))
    assert(a.b1.exists(_ != 0.0) && a.b2.forall(_ != 0.0))
    val b = new MLP(3, 6, 2, seed = 2)
    b.copyWeightsFrom(a)
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    for (x <- Seq(Array(0.1, 0.5, -0.4), Array(0.0, 0.0, 0.0), Array(-1.0, 2.0, 0.3)))
      assert(bits(a.forward(x)) == bits(b.forward(x)))
  }

  test("copyWeightsFrom rejects shape mismatches") {
    val a = new MLP(3, 6, 2, seed = 1)
    val b = new MLP(3, 7, 2, seed = 2)
    intercept[IllegalArgumentException](b.copyWeightsFrom(a))
  }

  test("empty batches are rejected") {
    intercept[IllegalArgumentException](new MLP(2, 4, 2, seed = 1).trainBatch(Seq.empty))
  }

  test("layer widths must be positive") {
    intercept[IllegalArgumentException](new MLP(2, 0, 2, seed = 1))
  }
}
