package repro.learn

import java.util.Random
import repro.core.{BMC, WorkloadCost}
import scala.collection.mutable.ArrayBuffer

/** Configuration for the LBMC learner (Algorithm 3); the other settings
  * are the fixed constants in [[LBMC$ object LBMC]].
  *
  * @param episodes    M — number of learning episodes
  * @param steps       T — bit swaps per episode
  */
final case class LBMCConfig(episodes: Int = 30, steps: Int = 40, seed: Long = 42)

/** Result of an LBMC run. */
final case class LBMCResult(
    best: BMC,
    bestCost: BigInt,
    costTrace: Vector[Double], // C_t / C_1 per step, the paper's Fig. 8e
    rewardNanos: Long,         // time spent in cost estimation (reward calc)
    networkNanos: Long,        // time in Q- and target-network forwards and training
    totalNanos: Long)

/** LBMC: reinforcement-learning search for a query-efficient BMC
  * (Section 5, Algorithm 3).
  *
  * State = the current BMC σ_t (one-hot encoded), action = the rank of a
  * bit to swap with its upper neighbour, reward = the relative cost
  * reduction `(C_t − C_{t+1}) / C_1` where C is the O(1) combined cost
  * model (Eq. 4/6 + Algorithm 2). A deep Q-network with experience replay
  * and a target network selects swaps ε-greedily.
  */
final class LBMC(cost: WorkloadCost, cfg: LBMCConfig = LBMCConfig()) {
  import LBMC._

  // With one dimension owning bits, every swap is a no-op: no action is valid.
  require(cost.bitsPerDim.count(_ > 0) >= 2,
    s"LBMC needs at least two dimensions with bits to swap, got ℓ = ${cost.bitsPerDim.mkString("(", ", ", ")")}")

  private val d = cost.d
  private val L = cost.bitsPerDim.sum
  private val stateSize = L * d
  private val nActions = L - 1

  /** φ(σ): one-hot encoding of the dimension owning each rank. */
  private[learn] def encode(sigma: BMC): Array[Double] = {
    val x = new Array[Double](stateSize)
    var r = 0
    while (r < L) { x(r * d + sigma.dims(r)) = 1.0; r += 1 }
    x
  }

  /** Actions that change σ (swapping two same-dimension bits is a no-op). */
  private def validActions(sigma: BMC): Array[Int] = {
    val dims = sigma.dims
    val valid = new Array[Int](nActions)
    var n = 0
    var a = 0
    while (a < nActions) {
      if (dims(a) != dims(a + 1)) { valid(n) = a; n += 1 }
      a += 1
    }
    java.util.Arrays.copyOf(valid, n)
  }

  /** The first of `actions` with the greatest `q`, ordered by
    * `java.lang.Double.compare` (as `Ordering.Double` orders them).
    */
  private def argMax(actions: Array[Int], q: Array[Double]): Int = {
    var best = actions(0)
    var k = 1
    while (k < actions.length) {
      if (java.lang.Double.compare(q(actions(k)), q(best)) > 0) best = actions(k)
      k += 1
    }
    best
  }

  /** Run Algorithm 3 from `init` and return the best BMC encountered. */
  def learn(init: BMC): LBMCResult = {
    require(init.d == d && java.util.Arrays.equals(init.bitsPerDim, cost.bitsPerDim),
      "initial BMC shape does not match the cost model")
    val t0 = System.nanoTime()
    var rewardNanos = 0L
    def timedCost(s: BMC): Double = {
      val c0 = System.nanoTime()
      val c = cost.costD(s)
      rewardNanos += System.nanoTime() - c0
      c
    }
    var networkNanos = 0L
    def timedNet[A](f: => A): A = {
      val n0 = System.nanoTime()
      val a = f
      networkNanos += System.nanoTime() - n0
      a
    }

    val rng = new Random(cfg.seed)
    val qNet = new MLP(stateSize, Hidden, nActions, cfg.seed + 1, LearningRate)
    val target = new MLP(stateSize, Hidden, nActions, cfg.seed + 1, LearningRate)
    target.copyWeightsFrom(qNet)
    // Target syncs so far: a transition's cached max Q is current while
    // its epoch equals this, since the target weights change only at syncs.
    var syncs = 0

    val mq = new ArrayBuffer[Transition]
    val trace = Vector.newBuilder[Double]

    val c1 = timedCost(init)
    var best = init
    var bestCost = c1
    var globalStep = 0
    val totalSteps = cfg.episodes * cfg.steps

    for (_ <- 1 to cfg.episodes) {
      var sigma = init
      var curCost = c1
      var state = encode(sigma)
      for (_ <- 1 to cfg.steps) {
        val valid = validActions(sigma)
        val exploit = ExploitStart +
          (ExploitEnd - ExploitStart) * globalStep / math.max(1, totalSteps - 1)
        val action =
          if (rng.nextDouble() >= exploit) valid(rng.nextInt(valid.length))
          else argMax(valid, timedNet(qNet.forward(state)))
        val next = sigma.swap(action)
        val nextCost = timedCost(next)
        val reward = (curCost - nextCost) / c1
        val nextState = encode(next)
        val nextValid = validActions(next)

        if (mq.size >= Replay) mq.remove(0)
        mq += new Transition(state, action, reward, nextState, nextValid)

        if (mq.size >= Batch) {
          val batch = Seq.fill(Batch)(mq(rng.nextInt(mq.size)))
          val samples = batch.map { t =>
            if (t.epoch < syncs) {
              val q2 = timedNet(target.forward(t.nextState))
              t.maxQ = q2(argMax(t.nextValid, q2))
              t.epoch = syncs
            }
            (t.state, t.action, t.reward + Gamma * t.maxQ)
          }
          timedNet(qNet.trainBatch(samples))
        }
        globalStep += 1
        if (globalStep % TargetSync == 0) { target.copyWeightsFrom(qNet); syncs += 1 }

        sigma = next
        curCost = nextCost
        state = nextState
        trace += curCost / c1
        if (curCost < bestCost) { bestCost = curCost; best = sigma }
      }
    }
    LBMCResult(best, cost.cost(best), trace.result(), rewardNanos, networkNanos, System.nanoTime() - t0)
  }
}

object LBMC {
  /** ε at the first step: the probability of exploiting (linear schedule). */
  val ExploitStart = 0.5
  /** ε at the last step. */
  val ExploitEnd = 0.95
  /** Discount factor of the Q target. */
  val Gamma = 0.9
  /** Hidden width of the DQN. */
  val Hidden = 64
  /** Replay minibatch size. */
  val Batch = 32
  /** Replay-memory capacity N_MQ. */
  val Replay = 2048
  /** Steps between target-network syncs. */
  val TargetSync = 50
  /** SGD learning rate of the DQN. */
  val LearningRate = 1e-3

  /** A replay-memory entry of MQ, with the target network's max Q over
    * `nextValid` at `nextState` as computed at sync epoch `epoch` (−1: never).
    */
  private final class Transition(val state: Array[Double], val action: Int, val reward: Double,
                                 val nextState: Array[Double], val nextValid: Array[Int]) {
    var maxQ = 0.0
    var epoch = -1
  }
}
