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
    // Compare the backprop update direction with a finite-difference
    // estimate of dLoss/dw for a few weights.
    val x = Array(0.4, -0.3)
    val target = 0.7
    def loss(net: MLP): Double = {
      val o = net.forward(x)(0) - target
      o * o
    }
    val eps = 1e-6
    // Clone two identical nets; perturb one weight in the second.
    val net = new MLP(2, 4, 1, seed = 11)
    val pert = new MLP(2, 4, 1, seed = 11)
    pert.copyWeightsFrom(net)
    pert.w1(0)(0) += eps
    val numGrad = (loss(pert) - loss(net)) / eps
    // One training step with a large-lr fresh Adam: weight must move
    // opposite to the numeric gradient's sign (Adam normalizes magnitude).
    val w0 = net.w1(0)(0)
    net.trainBatch(Seq((x, 0, target)))
    val moved = net.w1(0)(0) - w0
    if (math.abs(numGrad) > 1e-9)
      assert(math.signum(moved) == -math.signum(numGrad),
        s"numeric grad $numGrad but weight moved $moved")
  }

  test("copyWeightsFrom makes networks identical") {
    val a = new MLP(3, 6, 2, seed = 1)
    val b = new MLP(3, 6, 2, seed = 2)
    b.copyWeightsFrom(a)
    val x = Array(0.1, 0.5, -0.4)
    assert(a.forward(x).toSeq == b.forward(x).toSeq)
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
