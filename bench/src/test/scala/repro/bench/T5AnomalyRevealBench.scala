package repro.bench

import org.apache.spark.sql.functions._
import repro.TestPipeline
import repro.core.{Anomaly, Tables}
import repro.util.Render

/** T5 — what sliding windows reveal that fixed windows miss (paper Figs. 9
  * and 13 vs Figs. 2 and 3): roughly twice the measurement results, more
  * extreme values, and magnified abnormal changes.
  */
class T5AnomalyRevealBench extends BenchSpec {

  private lazy val t5Btc = Tables.revealSummary(BenchData.btcSpec, btcAttrib).cache()
  private lazy val t5Eth = Tables.revealSummary(BenchData.ethSpec, ethAttrib).cache()

  test("T5: report tables") {
    BenchData.report("T5_reveal_bitcoin", Render.table(t5Btc))
    BenchData.report("T5_reveal_ethereum", Render.table(t5Eth))
  }

  test("T5: sliding roughly doubles the number of measurement results") {
    for (r <- t5Btc.collect() ++ t5Eth.collect()) {
      val fixedN   = r.getLong(r.fieldIndex("results_fixed"))
      val slidingN = r.getLong(r.fieldIndex("results_sliding"))
      assert(slidingN.toDouble / fixedN > 1.5,
        s"${r.getString(0)}/${r.getString(1)}: $slidingN vs $fixedN")
    }
  }

  test("T5: BTC sliding windows reveal at least as many entropy extremes as fixed") {
    val r = t5Btc.where(col("granularity") === "day" && col("metric") === "entropy").first()
    val ef = r.getLong(r.fieldIndex("extremes_fixed"))
    val es = r.getLong(r.fieldIndex("extremes_sliding"))
    assert(es >= ef, s"sliding $es vs fixed $ef")
    assert(es > 0L, "the early-2019 anomalies must surface")
  }

  test("T5: sliding magnifies the daily entropy extremes (paper: >5.0 values doubled)") {
    val spec = BenchData.btcSpec
    val fixedHigh = TestPipeline.fixed(btcAttrib, repro.core.FixedWindows.Daily)
      .where(col("entropy") > 5.0).count()
    val slidingHigh = TestPipeline.sliding(btcAttrib, spec, spec.slidingDay)
      .where(col("entropy") > 5.0).count()
    assert(slidingHigh >= 2L * fixedHigh,
      s"sliding $slidingHigh vs fixed $fixedHigh high-entropy windows")
  }

  test("T5: BTC daily Nakamoto z-extremes at least double under sliding windows (Fig. 13)") {
    val r = t5Btc.where(col("granularity") === "day" && col("metric") === "nakamoto").first()
    val ef = r.getLong(r.fieldIndex("extremes_fixed"))
    val es = r.getLong(r.fieldIndex("extremes_sliding"))
    // paper: "some extreme values measured with fixed windows have been
    // doubled in the results measured with one-day long sliding windows"
    assert(ef > 0L && es >= 2L * ef, s"sliding $es vs fixed $ef")
  }

  test("T5: BTC extremes are violent, ETH extremes are noise (z-magnitude)") {
    def maxZ(attrib: org.apache.spark.sql.DataFrame): Double = {
      val s = TestPipeline.fixed(attrib, repro.core.FixedWindows.Daily)
      val r = s.agg(avg("entropy"), stddev_samp(col("entropy")), max("entropy")).first()
      (r.getDouble(2) - r.getDouble(0)) / r.getDouble(1)
    }
    val (bz, ez) = (maxZ(btcAttrib), maxZ(ethAttrib))
    // BTC's day-14 spike is ~10σ; stable Ethereum never strays far.
    assert(bz > 2.0 * ez, s"btc z=$bz vs eth z=$ez")
    assert(ez < 5.0, s"eth max z $ez should stay near the noise level")
  }
}
