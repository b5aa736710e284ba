package repro.learn

import java.util.Random

/** A small fully-connected network with ReLU hidden layers, a linear
  * output layer, and the Adam optimizer — the function approximator for
  * the deep-Q-network of Section 5 (substituting for TensorFlow, see
  * DESIGN.md § 4). Deterministic in its seed.
  *
  * Training targets a single output unit per sample (the Q-value of the
  * chosen action), which is the DQN loss
  * `(y − Q(φ(σ), a; θ))²` of the paper, with the other outputs untouched.
  */
final class MLP(val sizes: Array[Int], seed: Long, val lr: Double = 1e-3) extends Serializable {
  require(sizes.length >= 2, "need at least input and output layers")

  private val L = sizes.length - 1 // number of weight layers
  private val rng = new Random(seed)

  // w(l)(out)(in), b(l)(out); He initialization for the ReLU layers.
  private[learn] val w: Array[Array[Array[Double]]] = Array.tabulate(L) { l =>
    val scale = math.sqrt(2.0 / sizes(l))
    Array.fill(sizes(l + 1), sizes(l))(rng.nextGaussian() * scale)
  }
  private[learn] val b: Array[Array[Double]] = Array.tabulate(L)(l => new Array[Double](sizes(l + 1)))

  // Adam state.
  private val mw = w.map(_.map(_.map(_ => 0.0)))
  private val vw = w.map(_.map(_.map(_ => 0.0)))
  private val mb = b.map(_.map(_ => 0.0))
  private val vb = b.map(_.map(_ => 0.0))
  private var adamT = 0
  private val beta1 = 0.9
  private val beta2 = 0.999
  private val eps = 1e-8

  // Training buffers, allocated once: gradients, and per layer the
  // activations and the deltas of one sample.
  private val gw = w.map(_.map(row => new Array[Double](row.length)))
  private val gb = b.map(row => new Array[Double](row.length))
  private val acts = layerBuffers()
  private val deltas = layerBuffers()

  /** One array per layer 1..L. Index 0 stays empty: the input activations
    * are the caller's array, and the input layer needs no delta.
    */
  private def layerBuffers(): Array[Array[Double]] =
    Array.tabulate(L + 1)(l => if (l == 0) null else new Array[Double](sizes(l)))

  /** Forward pass writing every layer's activations into `acts` (index 0
    * becomes the input itself); returns the output layer.
    */
  private def forwardInto(x: Array[Double], acts: Array[Array[Double]]): Array[Double] = {
    require(x.length == sizes(0), s"input size ${x.length} != ${sizes(0)}")
    acts(0) = x
    var l = 0
    while (l < L) {
      val in = acts(l)
      val out = acts(l + 1)
      val wl = w(l); val bl = b(l)
      var o = 0
      while (o < out.length) {
        var s = bl(o)
        val row = wl(o)
        var i = 0
        while (i < in.length) { s += row(i) * in(i); i += 1 }
        out(o) = if (l < L - 1 && s < 0) 0.0 else s // ReLU on hidden layers
        o += 1
      }
      l += 1
    }
    acts(L)
  }

  /** Network output for input `x`. */
  def forward(x: Array[Double]): Array[Double] = forwardInto(x, layerBuffers())

  /** One Adam step on a minibatch. Each sample supplies the target value
    * for exactly one output unit (`action`); returns the mean squared
    * error over the batch before the update.
    */
  def trainBatch(batch: Seq[(Array[Double], Int, Double)]): Double = {
    require(batch.nonEmpty, "empty batch")
    val n = batch.size
    gw.foreach(_.foreach(java.util.Arrays.fill(_, 0.0)))
    gb.foreach(java.util.Arrays.fill(_, 0.0))
    var loss = 0.0
    for ((x, action, target) <- batch) {
      val out = forwardInto(x, acts)
      val err = out(action) - target
      loss += err * err
      // Backprop: output delta is zero except at the chosen action.
      java.util.Arrays.fill(deltas(L), 0.0)
      deltas(L)(action) = 2.0 * err / n
      var l = L - 1
      while (l >= 0) {
        val in = acts(l)
        val wl = w(l)
        val delta = deltas(l + 1)
        val next = deltas(l)
        if (l > 0) java.util.Arrays.fill(next, 0.0)
        var o = 0
        while (o < delta.length) {
          val dl = delta(o)
          if (dl != 0.0) {
            gb(l)(o) += dl
            val grow = gw(l)(o)
            var i = 0
            while (i < in.length) { grow(i) += dl * in(i); i += 1 }
            if (l > 0) {
              val wrow = wl(o)
              i = 0
              while (i < next.length) { next(i) += dl * wrow(i); i += 1 }
            }
          }
          o += 1
        }
        if (l > 0) {
          // ReLU derivative of the layer-l activations.
          var i = 0
          while (i < next.length) { if (in(i) <= 0) next(i) = 0.0; i += 1 }
        }
        l -= 1
      }
    }
    adamStep()
    loss / n
  }

  private def adamStep(): Unit = {
    adamT += 1
    val c1 = 1.0 - math.pow(beta1, adamT)
    val c2 = 1.0 - math.pow(beta2, adamT)
    var l = 0
    while (l < L) {
      var o = 0
      while (o < w(l).length) {
        val wrow = w(l)(o); val grow = gw(l)(o)
        val mrow = mw(l)(o); val vrow = vw(l)(o)
        var i = 0
        while (i < wrow.length) {
          val g = grow(i)
          mrow(i) = beta1 * mrow(i) + (1 - beta1) * g
          vrow(i) = beta2 * vrow(i) + (1 - beta2) * g * g
          wrow(i) -= lr * (mrow(i) / c1) / (math.sqrt(vrow(i) / c2) + eps)
          i += 1
        }
        val g = gb(l)(o)
        mb(l)(o) = beta1 * mb(l)(o) + (1 - beta1) * g
        vb(l)(o) = beta2 * vb(l)(o) + (1 - beta2) * g * g
        b(l)(o) -= lr * (mb(l)(o) / c1) / (math.sqrt(vb(l)(o) / c2) + eps)
        o += 1
      }
      l += 1
    }
  }

  /** Copy another network's weights into this one (target-network sync). */
  def copyWeightsFrom(other: MLP): Unit = {
    require(java.util.Arrays.equals(other.sizes, sizes), "shape mismatch")
    var l = 0
    while (l < L) {
      var o = 0
      while (o < w(l).length) {
        System.arraycopy(other.w(l)(o), 0, w(l)(o), 0, w(l)(o).length)
        o += 1
      }
      System.arraycopy(other.b(l), 0, b(l), 0, b(l).length)
      l += 1
    }
  }
}
