package repro.learn

import java.util.Random

/** The reference for [[MLP]]: the same network, initialization and Adam
  * steps with weights stored row-major (`w1(hidden)(input)`,
  * `w2(output)(hidden)`) and each unit computed as a full dot product,
  * zero inputs included. `MLP` must match it bit for bit.
  */
final class RowMajorMLP(val inputs: Int, val hidden: Int, val outputs: Int, seed: Long, val lr: Double = 1e-3) {
  require(inputs > 0 && hidden > 0 && outputs > 0, s"layer widths must be positive: $inputs, $hidden, $outputs")

  private val rng = new Random(seed)

  /** He initialization for a ReLU layer: one row of `cols` weights per unit. */
  private def he(rows: Int, cols: Int): Array[Array[Double]] = {
    val scale = math.sqrt(2.0 / cols)
    Array.fill(rows, cols)(rng.nextGaussian() * scale)
  }

  // w1(hidden)(input), w2(output)(hidden), drawn in this order; zero biases.
  private[learn] val w1 = he(hidden, inputs)
  private[learn] val w2 = he(outputs, hidden)
  private[learn] val b1 = new Array[Double](hidden)
  private[learn] val b2 = new Array[Double](outputs)

  // Adam state.
  private val mw1, vw1 = Array.ofDim[Double](hidden, inputs)
  private val mw2, vw2 = Array.ofDim[Double](outputs, hidden)
  private val mb1, vb1 = new Array[Double](hidden)
  private val mb2, vb2 = new Array[Double](outputs)
  private var adamT = 0
  private val beta1 = 0.9
  private val beta2 = 0.999
  private val eps = 1e-8

  // Training buffers, allocated once: the gradients, and the hidden
  // activations, hidden deltas and outputs of one sample.
  private val gw1 = Array.ofDim[Double](hidden, inputs)
  private val gw2 = Array.ofDim[Double](outputs, hidden)
  private val gb1, h, dh = new Array[Double](hidden)
  private val gb2, out = new Array[Double](outputs)

  /** `out = w·in + b`, clamped at zero when `relu`. */
  private def layer(w: Array[Array[Double]], b: Array[Double], in: Array[Double],
                    out: Array[Double], relu: Boolean): Unit = {
    var o = 0
    while (o < out.length) {
      var s = b(o)
      val row = w(o)
      var i = 0
      while (i < in.length) { s += row(i) * in(i); i += 1 }
      out(o) = if (relu && s < 0) 0.0 else s
      o += 1
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

  /** `row += scale · v`, element by element. */
  private def addScaled(row: Array[Double], scale: Double, v: Array[Double]): Unit = {
    var i = 0
    while (i < row.length) { row(i) += scale * v(i); i += 1 }
  }

  /** One Adam step on a minibatch. Each sample supplies the target value
    * for exactly one output unit (`action`); returns the mean squared
    * error over the batch before the update.
    */
  def trainBatch(batch: Seq[(Array[Double], Int, Double)]): Double = {
    require(batch.nonEmpty, "empty batch")
    val n = batch.size
    gw1.foreach(java.util.Arrays.fill(_, 0.0))
    gw2.foreach(java.util.Arrays.fill(_, 0.0))
    java.util.Arrays.fill(gb1, 0.0)
    java.util.Arrays.fill(gb2, 0.0)
    var loss = 0.0
    for ((x, action, target) <- batch) {
      forwardInto(x, h, out)
      val err = out(action) - target
      loss += err * err
      // Backprop: the output delta is zero except at the chosen action.
      val dOut = 2.0 * err / n
      if (dOut != 0.0) {
        gb2(action) += dOut
        addScaled(gw2(action), dOut, h)
        val w2row = w2(action)
        var i = 0
        while (i < hidden) { dh(i) = if (h(i) <= 0) 0.0 else dOut * w2row(i); i += 1 } // ReLU derivative
        var o = 0
        while (o < hidden) {
          val dl = dh(o)
          if (dl != 0.0) { gb1(o) += dl; addScaled(gw1(o), dl, x) }
          o += 1
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
    var o = 0
    while (o < hidden) { update(w1(o), gw1(o), mw1(o), vw1(o)); o += 1 }
    update(b1, gb1, mb1, vb1)
    o = 0
    while (o < outputs) { update(w2(o), gw2(o), mw2(o), vw2(o)); o += 1 }
    update(b2, gb2, mb2, vb2)
  }
}
