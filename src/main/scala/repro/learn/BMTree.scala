package repro.learn

import java.util.Random
import repro.core._
import repro.core.PiecewiseBMC.{Node, Split, Tail, interleave}

/** A BMTree learner (Li et al., PVLDB'23), as used in Section 6.3 of the
  * reproduced paper.
  *
  * The learner partitions the space quadtree-style top-down to depth `h`:
  * at each node it picks which dimension's next bit orders the sub-space,
  * scoring each candidate with a *reward* (cost estimator) over the
  * queries clipped to the sub-space. The rewards are the sealed set of
  * three that the paper compares, and one match in [[BMTree.learn]]
  * builds a node's scorer from them:
  *
  *  - [[BMTree.SPReward]] — the original BMTree's empirical estimator:
  *    order the node's ρ-sampled data points by the candidate curve, pack
  *    them into blocks, and measure the block accesses of the node's
  *    queries. Cost grows with ρ·N and n (the paper's bottleneck).
  *  - [[BMTree.GCReward]] — the paper's closed-form global cost (Eq. 6).
  *  - [[BMTree.LCReward]] — the paper's pattern-table local cost (Alg. 2).
  *
  * The original learner uses MCTS + RL over the same node choices; the
  * greedy variant preserves what the experiments measure (see DESIGN.md
  * § 4): the reward-calculation time profile of SP vs GC vs LC and the
  * piecewise-curve behaviour limited to `h` learned bits.
  */
object BMTree {

  /** A node-cost estimator: one of the three rewards of Figs. 11–13. */
  sealed trait Reward { def name: String }

  /** Sampled-data empirical cost (the original BMTree-SP variant). */
  object SPReward extends Reward { override def name: String = "SP" }

  /** Closed-form global cost (the BMTree-GC variant). */
  object GCReward extends Reward { override def name: String = "GC" }

  /** Pattern-table local cost (the BMTree-LC variant). */
  object LCReward extends Reward { override def name: String = "LC" }

  /** Learned tree plus instrumentation. `rewardNanos` isolates the time
    * spent in reward initialization + candidate scoring — the quantity
    * Figures 11–13 of the paper report.
    */
  final case class Result(
      curve: PiecewiseBMC,
      rewardNanos: Long,
      totalNanos: Long,
      nodes: Int)

  /** Learn a piecewise BMC.
    *
    * @param queries   learning workload (grid coordinates)
    * @param data      dataset points (grid coordinates); only SP reads them
    * @param d         dimensionality
    * @param bits      ℓ, bits per dimension
    * @param h         maximum split depth (learned bits)
    * @param rho       data sampling rate for SP
    * @param reward    node-cost estimator
    * @param blockSize B, points per block for SP
    */
  def learn(
      queries: Seq[Rect],
      data: Array[Array[Long]],
      d: Int,
      bits: Int,
      h: Int,
      rho: Double,
      reward: Reward,
      blockSize: Int = 128,
      seed: Long = 7): Result = {
    require(h >= 0 && h < d * bits, s"depth h=$h must be in [0, ${d * bits})")
    val t0 = System.nanoTime()
    var rewardNanos = 0L
    var nodes = 0

    // SP samples once at the root, like the original BMTree.
    val rng = new Random(seed)
    val sampled: Array[Array[Long]] =
      if (reward == SPReward) data.filter(_ => rng.nextDouble() < rho) else Array.empty

    // One node's scorer over its remaining bits, clipped queries and
    // sampled points: GC and LC scan the queries once here, SP builds an
    // index per candidate.
    def scorer(remBits: Array[Int], qs: Seq[Rect], pts: Array[Array[Long]]): BMC => Double =
      reward match {
        case SPReward =>
          sigma => ClusteredIndex.build(pts, sigma, blockSize).avgBlockAccesses(qs)
        case GCReward =>
          val est = new GlobalCost.Estimator(qs, d, remBits)
          sigma => est.cost(sigma).doubleValue
        case LCReward =>
          val tables = new LocalCost.PatternTables(qs, d, remBits)
          sigma => tables.cost(sigma).doubleValue
      }

    def build(depth: Int, remBits: Array[Int], qs: Seq[Rect], pts: Array[Array[Long]]): Node = {
      if (depth >= h || qs.isEmpty) Tail(interleave(remBits))
      else {
        nodes += 1
        val candidates = (0 until d).filter(remBits(_) > 0)
        val chosen =
          if (candidates.size == 1) candidates.head
          else {
            val r0 = System.nanoTime()
            val eval = scorer(remBits, qs, pts)
            val scored = candidates.map { c =>
              val below = remBits.clone(); below(c) -= 1
              // Candidate: bit of dimension c on top, default completion below.
              val sigma = BMC(interleave(below).dims.toSeq :+ c, d)
              (c, eval(sigma))
            }
            rewardNanos += System.nanoTime() - r0
            scored.minBy(_._2)._1
          }

        val c = chosen
        val bitPos = remBits(c) - 1
        val half = 1L << bitPos
        val rem2 = remBits.clone(); rem2(c) -= 1

        val (pts0, pts1raw) = pts.partition(p => (p(c) & half) == 0)
        val pts1 = pts1raw.map { p => val q = p.clone(); q(c) -= half; q }

        val qs0 = Seq.newBuilder[Rect]
        val qs1 = Seq.newBuilder[Rect]
        for (q <- qs) {
          if (q.lo(c) < half) {
            val hi = q.hi.clone(); hi(c) = math.min(q.hi(c), half - 1)
            qs0 += Rect(q.lo.clone(), hi)
          }
          if (q.hi(c) >= half) {
            val lo = q.lo.clone(); lo(c) = math.max(q.lo(c), half) - half
            val hi = q.hi.clone(); hi(c) -= half
            qs1 += Rect(lo, hi)
          }
        }
        Split(c, build(depth + 1, rem2, qs0.result(), pts0),
                 build(depth + 1, rem2, qs1.result(), pts1))
      }
    }

    val root = build(0, Array.fill(d)(bits), queries, sampled)
    Result(new PiecewiseBMC(root, d, bits), rewardNanos, System.nanoTime() - t0, nodes)
  }
}
