package repro.chain

/** A block producer with a relative mining-power weight.
  *
  * Weights within a [[Regime]] need not sum to 1; they are normalized when the
  * regime's sampling CDF is built.
  */
final case class Miner(name: String, weight: Double) {
  require(weight > 0, s"miner $name must have positive weight, got $weight")
}

/** A piecewise-constant mining-power distribution, active on days
  * [firstDay, lastDay] (1-based day-of-year, inclusive).
  */
final case class Regime(firstDay: Int, lastDay: Int, miners: Vector[Miner]) {
  require(firstDay >= 1 && lastDay >= firstDay, s"bad day range [$firstDay,$lastDay]")
  require(miners.nonEmpty, "regime needs at least one miner")
  require(miners.map(_.name).distinct.size == miners.size, "duplicate miner names in regime")

  /** Total (unnormalized) weight. */
  def totalWeight: Double = miners.map(_.weight).sum

  /** Normalized share per miner, in declaration order. */
  def shares: Vector[Double] = { val t = totalWeight; miners.map(_.weight / t) }

  /** Inverse-CDF sampling arrays: `cdf(i)` is the cumulative share through
    * miner i; the last entry is forced to 1.0 so every u in [0,1) maps to a
    * miner. Returns (cdf, names).
    */
  def samplingArrays: (Array[Double], Array[String]) = {
    val cdf = shares.scanLeft(0.0)(_ + _).tail.toArray
    cdf(cdf.length - 1) = 1.0
    (cdf, miners.map(_.name).toArray)
  }
}

/** An anomalous multi-producer block (the paper's multi-coinbase-address
  * blocks, e.g. BTC no. 558,473 with >80 coinbase addresses): the block at
  * day `day`, fraction `frac` through the day, is attributed to `nProducers`
  * distinct one-off producers instead of a single sampled miner. Anomalies
  * that land on the same block add up: its producers are
  * `anon_<block>_1..(n₁ + n₂ + …)`. `BlockGenerator.attributions` looks the
  * block up per row in the same scan that samples every other block.
  */
final case class AnomalySpec(day: Int, frac: Double, nProducers: Int) {
  require(day >= 1 && day <= 366, s"bad anomaly day $day")
  require(frac >= 0.0 && frac < 1.0, s"bad anomaly frac $frac")
  require(nProducers >= 1, s"bad anomaly producer count $nProducers")
}

/** Full synthetic-chain specification for one blockchain over one year.
  *
  * @param name         chain label ("bitcoin" / "ethereum")
  * @param firstBlock   block number of the first 2019 block
  * @param blockCount   S — total blocks in the year
  * @param yearSeconds  length of the covered period in seconds
  * @param regimes      contiguous day-range mining-power regimes covering the year
  * @param anomalies    multi-producer anomaly blocks
  * @param slidingDay / slidingWeek / slidingMonth  sliding-window sizes N in
  *        blocks (paper: BTC 144/1008/4320, ETH 6000/42000/180000)
  */
final case class ChainSpec(
    name: String,
    firstBlock: Long,
    blockCount: Long,
    yearSeconds: Long,
    regimes: Vector[Regime],
    anomalies: Vector[AnomalySpec],
    slidingDay: Long,
    slidingWeek: Long,
    slidingMonth: Long,
) {
  require(blockCount > 0, "blockCount must be positive")
  require(yearSeconds > 0, "yearSeconds must be positive")
  require(slidingDay > 1 && slidingWeek > 1 && slidingMonth > 1, "window sizes must be > 1")
  require(regimes.nonEmpty, "need at least one regime")
  // Regimes must tile the day axis with no gaps or overlaps from day 1.
  require(regimes.head.firstDay == 1, "regimes must start at day 1")
  regimes.sliding(2).foreach {
    case Vector(a, b) =>
      require(b.firstDay == a.lastDay + 1, s"regime gap/overlap at day ${b.firstDay}")
    case _ => ()
  }
  require(regimes.last.lastDay >= lastDay, s"regimes must cover the final day $lastDay")
  // blockAtDay clamps to the last block: a later anomaly would be measured on the wrong day.
  for (a <- anomalies) require(a.day <= lastDay, s"anomaly day ${a.day} is past the chain's last day $lastDay")

  /** Mean inter-block spacing in seconds (BTC ≈ 581.5, ETH ≈ 14.3). */
  def secondsPerBlock: Double = yearSeconds.toDouble / blockCount

  /** Timestamp (seconds since year start) of the block at 0-based index. */
  def tsOf(idx: Long): Long = math.floor(idx * secondsPerBlock).toLong

  /** 1-based day-of-year of the block at 0-based index. */
  def dayOf(idx: Long): Int = (tsOf(idx) / 86400L).toInt + 1

  /** Day-of-year of the final block. */
  def lastDay: Int = dayOf(blockCount - 1)

  /** Block number of the block at fraction `frac` through `day` (clamped to
    * the chain's range). Used to place anomaly blocks.
    */
  def blockAtDay(day: Int, frac: Double): Long = {
    val sec = ((day - 1).toDouble + frac) * 86400.0
    val idx = math.min(blockCount - 1, math.max(0L, math.round(sec / secondsPerBlock)))
    firstBlock + idx
  }

  /** A test-scale copy: same regimes/anomalies/time span, `f`× the blocks and
    * sliding-window sizes. Anomaly blocks stay at the same days because they
    * are specified by (day, frac).
    */
  def scaled(f: Double): ChainSpec = {
    require(f > 0 && f <= 1.0, s"bad scale $f")
    def w(x: Long) = math.max(2L, math.round(x * f))
    copy(
      blockCount = math.max(10L, math.round(blockCount * f)),
      slidingDay = w(slidingDay),
      slidingWeek = w(slidingWeek),
      slidingMonth = w(slidingMonth),
    )
  }
}
