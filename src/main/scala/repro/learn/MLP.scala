package repro.learn

import java.util.Random

/** A fully-connected network with one ReLU hidden layer, a linear output
  * layer, and the Adam optimizer — the function approximator for the
  * deep-Q-network of Section 5 (substituting for TensorFlow, see
  * DESIGN.md § 4). Deterministic in its seed.
  *
  * Training targets a single output unit per sample (the Q-value of the
  * chosen action), which is the DQN loss
  * `(y − Q(φ(σ), a; θ))²` of the paper, with the other outputs untouched.
  */
final class MLP(val inputs: Int, val hidden: Int, val outputs: Int, seed: Long, val lr: Double = 1e-3) {
  require(inputs > 0 && hidden > 0 && outputs > 0, s"layer widths must be positive: $inputs, $hidden, $outputs")

  private val rng = new Random(seed)

  /** He initialization for a ReLU layer of `units` units over `fanIn`
    * inputs, stored input-major (`w(input)(unit)`) but drawn unit by unit,
    * then input, so each weight gets the same draw in either layout.
    */
  private def he(fanIn: Int, units: Int): Array[Array[Double]] = {
    val scale = math.sqrt(2.0 / fanIn)
    val w = Array.ofDim[Double](fanIn, units)
    for (o <- 0 until units; i <- 0 until fanIn) w(i)(o) = rng.nextGaussian() * scale
    w
  }

  // w1(input)(hidden), w2(hidden)(output), drawn in this order; zero biases.
  private[learn] val w1 = he(inputs, hidden)
  private[learn] val w2 = he(hidden, outputs)
  private[learn] val b1 = new Array[Double](hidden)
  private[learn] val b2 = new Array[Double](outputs)

  // Training buffers, allocated once: the gradients, and the hidden
  // activations, hidden deltas and outputs of one sample.
  private val gw1 = Array.ofDim[Double](inputs, hidden)
  private val gw2 = Array.ofDim[Double](hidden, outputs)
  private val gb1, h, dh = new Array[Double](hidden)
  private val gb2, out = new Array[Double](outputs)

  // Every parameter row, and its gradient row at the same index: the one
  // list that Adam, the gradient reset and the target sync walk.
  private val params = w1 ++ w2 :+ b1 :+ b2
  private val grads = gw1 ++ gw2 :+ gb1 :+ gb2

  // Adam state: the two moments of each parameter row.
  private val moment1, moment2 = params.map(p => new Array[Double](p.length))
  private var adamT = 0
  private val beta1 = 0.9
  private val beta2 = 0.999
  private val eps = 1e-8

  /** `out = b + Σ_i in(i)·w(i)`, clamped at zero when `relu`: one axpy per
    * nonzero input, in ascending `i`, so each output adds the same terms in
    * the same order as a row-by-row dot product. A skipped term is
    * `w·0 = ±0.0`, which leaves the sum unchanged because the sum is never
    * −0.0: it starts at a bias, which Adam cannot make −0.0 from +0.0, and
    * a sum of nonzero terms is never −0.0 (finite weights assumed).
    */
  private def layer(w: Array[Array[Double]], b: Array[Double], in: Array[Double],
                    out: Array[Double], relu: Boolean): Unit = {
    System.arraycopy(b, 0, out, 0, out.length)
    var i = 0
    while (i < in.length) {
      val x = in(i)
      if (x != 0.0) {
        val row = w(i)
        var o = 0
        while (o < out.length) { out(o) += row(o) * x; o += 1 }
      }
      i += 1
    }
    if (relu) {
      var o = 0
      while (o < out.length) { if (out(o) < 0) out(o) = 0.0; o += 1 }
    }
  }

  /** Forward pass writing the hidden activations into `hid`; returns `res`. */
  private def forwardInto(x: Array[Double], hid: Array[Double], res: Array[Double]): Array[Double] = {
    require(x.length == inputs, s"input size ${x.length} != $inputs")
    layer(w1, b1, x, hid, relu = true)
    layer(w2, b2, hid, res, relu = false)
    res
  }

  /** Network output for input `x`. */
  def forward(x: Array[Double]): Array[Double] =
    forwardInto(x, new Array[Double](hidden), new Array[Double](outputs))

  /** One Adam step on a minibatch. Each sample supplies the target value
    * for exactly one output unit (`action`); returns the mean squared
    * error over the batch before the update.
    */
  def trainBatch(batch: Seq[(Array[Double], Int, Double)]): Double = {
    require(batch.nonEmpty, "empty batch")
    val n = batch.size
    grads.foreach(java.util.Arrays.fill(_, 0.0))
    var loss = 0.0
    for ((x, action, target) <- batch) {
      forwardInto(x, h, out)
      val err = out(action) - target
      loss += err * err
      // Backprop: the output delta is zero except at the chosen action.
      // Zero inputs and zero hidden units add ±0.0 terms, skipped as in `layer`.
      val dOut = 2.0 * err / n
      if (dOut != 0.0) {
        gb2(action) += dOut
        var i = 0
        while (i < hidden) {
          val hi = h(i)
          if (hi != 0.0) gw2(i)(action) += dOut * hi
          dh(i) = if (hi <= 0) 0.0 else dOut * w2(i)(action) // ReLU derivative
          gb1(i) += dh(i)
          i += 1
        }
        i = 0
        while (i < inputs) {
          val xi = x(i)
          if (xi != 0.0) {
            val g = gw1(i)
            var o = 0
            while (o < hidden) { g(o) += dh(o) * xi; o += 1 }
          }
          i += 1
        }
      }
    }
    adamStep()
    loss / n
  }

  private def adamStep(): Unit = {
    adamT += 1
    val c1 = 1.0 - math.pow(beta1, adamT)
    val c2 = 1.0 - math.pow(beta2, adamT)
    def update(p: Array[Double], g: Array[Double], m: Array[Double], v: Array[Double]): Unit = {
      var i = 0
      while (i < p.length) {
        val gi = g(i)
        m(i) = beta1 * m(i) + (1 - beta1) * gi
        v(i) = beta2 * v(i) + (1 - beta2) * gi * gi
        p(i) -= lr * (m(i) / c1) / (math.sqrt(v(i) / c2) + eps)
        i += 1
      }
    }
    var r = 0
    while (r < params.length) { update(params(r), grads(r), moment1(r), moment2(r)); r += 1 }
  }

  /** Copy another network's weights into this one (target-network sync). */
  def copyWeightsFrom(other: MLP): Unit = {
    require(other.inputs == inputs && other.hidden == hidden && other.outputs == outputs, "shape mismatch")
    for (r <- params.indices) System.arraycopy(other.params(r), 0, params(r), 0, params(r).length)
  }
}
