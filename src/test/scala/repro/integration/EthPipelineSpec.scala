package repro.integration

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams}
import repro.core._

/** Ethereum pipeline at 10% scale (220,465 blocks — the full 2.2M-block run
  * lives in bench/) asserting the paper's qualitative Ethereum findings.
  */
class EthPipelineSpec extends SparkSpec {

  private lazy val spec = ChainParams.eth2019.scaled(0.1)
  private lazy val attrib: DataFrame =
    BlockGenerator.attributions(spark, spec, seed = 2019L).cache()
  private lazy val daily = TestPipeline.fixed(attrib, FixedWindows.Daily).cache()

  private def meanOf(s: DataFrame, m: String): Double =
    s.agg(avg(col(m).cast("double"))).first().getDouble(0)

  test("scaled dataset: 220,465 blocks, one attribution each") {
    assert(attrib.count() === 220465L)
    assert(attrib.select("block_number").distinct().count() === 220465L)
  }

  test("Fig. 6 shape: daily Nakamoto fluctuates between 2 and 3") {
    val vals = daily.select("nakamoto").distinct().collect().map(_.getInt(0)).toSet
    assert(vals.subsetOf(Set(2, 3)), s"got $vals")
    assert(vals === Set(2, 3), "both regimes should be visible")
  }

  test("Fig. 5 shape: entropy is stable (low dispersion)") {
    val std = daily.agg(stddev_samp(col("entropy"))).first().getDouble(0)
    assert(std < 0.15, s"entropy stddev $std")
    val m = meanOf(daily, "entropy")
    assert(m > 3.0 && m < 3.7, s"mean entropy $m")
  }

  test("Fig. 4 shape: Gini is high and stable, monthly > daily") {
    val monthly = TestPipeline.fixed(attrib, FixedWindows.Monthly)
    val (d, mo) = (meanOf(daily, "gini"), meanOf(monthly, "gini"))
    assert(d > 0.70, s"daily gini $d")
    assert(mo > d, s"monthly $mo should exceed daily $d")
    val std = daily.agg(stddev_samp(col("gini"))).first().getDouble(0)
    assert(std < 0.06, s"gini stddev $std")
  }

  test("no anomalous values during the year (paper §II-C-2d)") {
    // At z=3, a stable series should flag (almost) nothing.
    assert(Anomaly.countExtremes(daily, "entropy", 4.0) === 0L)
    assert(Anomaly.countExtremes(daily, "gini", 4.0) === 0L)
  }

  test("sliding daily series matches Eq. 5 count and fixed-window averages") {
    val slide = TestPipeline.sliding(attrib, spec, spec.slidingDay).cache()
    assert(slide.count() ===
      SlidingWindows.numWindows(spec.blockCount, spec.slidingDay, spec.slidingDay / 2))
    assert(math.abs(meanOf(slide, "entropy") - meanOf(daily, "entropy")) < 0.1)
  }

  test("regime shift mid-year: H1 daily Nakamoto mode 2, H2 mode 3") {
    def mode(df: DataFrame) =
      df.groupBy("nakamoto").count().orderBy(desc("count")).first().getInt(0)
    assert(mode(daily.where(col("window_id") <= 170)) === 2)
    assert(mode(daily.where(col("window_id") > 190)) === 3)
  }
}
