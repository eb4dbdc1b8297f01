package repro.chain

import org.scalatest.funsuite.AnyFunSuite

/** Pure-model invariants: regimes, CDFs, chain-spec arithmetic. */
class ModelSpec extends AnyFunSuite {

  private def regime(ws: Double*) =
    Regime(1, 365, ws.zipWithIndex.map { case (w, i) => Miner(s"m$i", w) }.toVector)

  test("Miner rejects non-positive weight") {
    intercept[IllegalArgumentException](Miner("x", 0.0))
    intercept[IllegalArgumentException](Miner("x", -1.0))
  }

  test("Regime rejects bad day ranges and duplicate names") {
    intercept[IllegalArgumentException](Regime(0, 10, Vector(Miner("a", 1))))
    intercept[IllegalArgumentException](Regime(10, 5, Vector(Miner("a", 1))))
    intercept[IllegalArgumentException](
      Regime(1, 10, Vector(Miner("a", 1), Miner("a", 2))))
    intercept[IllegalArgumentException](Regime(1, 10, Vector.empty))
  }

  test("Regime shares normalize to 1") {
    val r = regime(2.0, 3.0, 5.0)
    assert(math.abs(r.shares.sum - 1.0) < 1e-12)
    assert(r.shares === Vector(0.2, 0.3, 0.5))
  }

  test("sampling CDF is monotone and ends at exactly 1.0") {
    val (cdf, names) = regime(0.1, 0.4, 0.2, 0.3).samplingArrays
    assert(names.length === 4)
    assert(cdf.last === 1.0)
    assert(cdf.sliding(2).forall { case Array(a, b) => a <= b })
  }

  test("AnomalySpec validates its fields") {
    intercept[IllegalArgumentException](AnomalySpec(0, 0.5, 10))
    intercept[IllegalArgumentException](AnomalySpec(5, 1.0, 10))
    intercept[IllegalArgumentException](AnomalySpec(5, 0.5, 0))
    assert(AnomalySpec(5, 0.0, 1).day === 5)
  }

  test("ChainSpec rejects an anomaly after its last day instead of moving it") {
    val s = ChainParams.btc2019
    val e = intercept[IllegalArgumentException](s.copy(anomalies = s.anomalies :+ AnomalySpec(366, 0.5, 10)))
    assert(e.getMessage.contains("anomaly day 366 is past the chain's last day 365"))
    assert(s.copy(anomalies = Vector(AnomalySpec(365, 0.5, 10))).anomalies.size === 1)
  }

  test("ChainSpec requires contiguous regimes starting at day 1") {
    val m = Vector(Miner("a", 1.0))
    def mk(rs: Vector[Regime]) =
      ChainSpec("t", 0L, 1000L, 86400L * 365L, rs, Vector.empty, 10L, 20L, 30L)
    intercept[IllegalArgumentException](mk(Vector(Regime(2, 365, m))))
    intercept[IllegalArgumentException](mk(Vector(Regime(1, 100, m), Regime(102, 365, m))))
    intercept[IllegalArgumentException](mk(Vector(Regime(1, 100, m), Regime(100, 365, m))))
    intercept[IllegalArgumentException](mk(Vector(Regime(1, 100, m)))) // uncovered tail
    assert(mk(Vector(Regime(1, 100, m), Regime(101, 365, m))).name === "t")
  }

  test("secondsPerBlock, tsOf and dayOf are consistent") {
    val s = ChainSpec("t", 100L, 365L, 86400L * 365L,
      Vector(Regime(1, 365, Vector(Miner("a", 1.0)))), Vector.empty, 2L, 3L, 4L)
    assert(s.secondsPerBlock === 86400.0)
    assert(s.tsOf(0L) === 0L)
    assert(s.tsOf(1L) === 86400L)
    assert(s.dayOf(0L) === 1)
    assert(s.dayOf(1L) === 2)
    assert(s.dayOf(364L) === 365)
    assert(s.lastDay === 365)
  }

  test("blockAtDay places blocks within the chain range") {
    val s = ChainParams.btc2019
    val b = s.blockAtDay(14, 0.55)
    assert(b >= s.firstBlock && b < s.firstBlock + s.blockCount)
    assert(s.dayOf(b - s.firstBlock) === 14)
    // extremes clamp
    assert(s.blockAtDay(1, 0.0) === s.firstBlock)
    assert(s.blockAtDay(365, 0.999) === s.firstBlock + s.blockCount - 1)
  }

  test("scaled() shrinks blocks and window sizes but keeps the year span") {
    val s = ChainParams.btc2019.scaled(0.1)
    assert(s.blockCount === 5423L)
    assert(s.slidingDay === 14L)
    assert(s.slidingWeek === 101L)
    assert(s.slidingMonth === 432L)
    assert(s.yearSeconds === ChainParams.btc2019.yearSeconds)
    assert(s.lastDay === 365)
    intercept[IllegalArgumentException](ChainParams.btc2019.scaled(0.0))
    intercept[IllegalArgumentException](ChainParams.btc2019.scaled(1.5))
  }

  test("scaled spec still covers all days with blocks") {
    val s = ChainParams.eth2019.scaled(0.001) // 2,205 blocks
    assert(s.dayOf(s.blockCount - 1) === 365)
  }
}
