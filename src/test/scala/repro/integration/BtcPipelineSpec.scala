package repro.integration

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams}
import repro.core._

/** Full-year Bitcoin pipeline at the paper's exact block count (54,231 —
  * small enough for unit tests) asserting the paper's qualitative findings.
  */
class BtcPipelineSpec extends SparkSpec {

  private lazy val spec = ChainParams.btc2019
  private lazy val attrib: DataFrame =
    BlockGenerator.attributions(spark, spec, seed = 2019L).cache()
  private lazy val daily   = TestPipeline.fixed(attrib, FixedWindows.Daily).cache()
  private lazy val weekly  = TestPipeline.fixed(attrib, FixedWindows.Weekly).cache()
  private lazy val monthly = TestPipeline.fixed(attrib, FixedWindows.Monthly).cache()

  private def meanOf(s: DataFrame, m: String): Double =
    s.agg(avg(col(m).cast("double"))).first().getDouble(0)

  test("dataset matches the paper: 54,231 blocks numbered 556,459..610,689") {
    assert(attrib.select("block_number").distinct().count() === 54231L)
    val r = attrib.agg(min("block_number"), max("block_number")).first()
    assert(r.getLong(0) === 556459L && r.getLong(1) === 610689L)
  }

  test("~144 blocks per day (148-149 at the paper's 2019 rate)") {
    val perDay = attrib.groupBy("day").agg(countDistinct("block_number").as("b"))
    val r = perDay.agg(min("b"), max("b")).first()
    assert(r.getLong(0) >= 147L && r.getLong(1) <= 150L)
  }

  test("Fig. 1 shape: monthly Gini > weekly Gini > daily Gini on average") {
    val (d, w, m) = (meanOf(daily, "gini"), meanOf(weekly, "gini"), meanOf(monthly, "gini"))
    assert(d < w && w < m, s"got daily=$d weekly=$w monthly=$m")
  }

  test("Fig. 1 values: daily Gini mostly in 0.45..0.60 with low early extremes") {
    val d = meanOf(daily, "gini")
    assert(d > 0.40 && d < 0.65, s"daily mean gini $d")
    val inBand = daily.where(col("gini").between(0.40, 0.68)).count().toDouble / 365.0
    assert(inBand > 0.80, s"only ${inBand * 100}%% of days in band")
    val earlyMin = daily.where(col("window_id") <= 90).agg(min("gini")).first().getDouble(0)
    assert(earlyMin < 0.45, s"early extreme $earlyMin") // paper: ~0.25-0.34 dips
  }

  test("Fig. 2 values: daily entropy mostly 3.5..4.0, extremes above 5.5") {
    val d = meanOf(daily, "entropy")
    assert(d > 3.4 && d < 4.1, s"daily mean entropy $d")
    val maxEarly = daily.where(col("window_id") <= 50).agg(max("entropy")).first().getDouble(0)
    assert(maxEarly > 5.5, s"early entropy max $maxEarly")
  }

  test("Fig. 3 values: Nakamoto stable at 4 mid-year, higher early") {
    val mid = daily.where(col("window_id").between(100, 260))
    val midMode = mid.groupBy("nakamoto").count().orderBy(desc("count")).first().getInt(0)
    assert(midMode === 4, s"mid-year modal Nakamoto $midMode")
    val earlyMax = daily.where(col("window_id") <= 50)
      .agg(max("nakamoto")).first().getInt(0)
    assert(earlyMax > 35, s"early daily Nakamoto max $earlyMax") // paper: > 35
  }

  test("first 50 days are more decentralized and more volatile (paper summary)") {
    val early = daily.where(col("window_id") <= 50)
    val late  = daily.where(col("window_id") > 100 && col("window_id") <= 300)
    assert(meanOf(early, "entropy") > meanOf(late, "entropy"))
    val stdEarly = early.agg(stddev_samp(col("entropy"))).first().getDouble(0)
    val stdLate  = late.agg(stddev_samp(col("entropy"))).first().getDouble(0)
    assert(stdEarly > stdLate)
  }

  test("day 14 case study: tiny Gini, huge entropy, 148-149 blocks (paper §II-C-1d)") {
    val d14 = daily.where(col("window_id") === 14L).first()
    assert(d14.getDouble(d14.fieldIndex("gini")) < 0.45)
    assert(d14.getDouble(d14.fieldIndex("entropy")) > 5.5)
    assert(d14.getLong(d14.fieldIndex("producers")) > 180L)
    val blocks14 = attrib.where(col("day") === 14)
      .select(countDistinct("block_number")).first().getLong(0)
    assert(blocks14 >= 147L && blocks14 <= 150L)
  }

  test("sliding daily averages sit near the fixed daily averages (paper §III-B)") {
    val slide = TestPipeline.sliding(attrib, spec, spec.slidingDay).cache()
    assert(slide.count() === 752L)
    val (fd, sd) = (meanOf(daily, "entropy"), meanOf(slide, "entropy"))
    assert(math.abs(fd - sd) < 0.15, s"fixed $fd vs sliding $sd")
  }

  test("sliding entropy means rise with window size (paper: 3.810 → 4.002 → 4.091)") {
    val means = Seq(spec.slidingDay, spec.slidingWeek, spec.slidingMonth)
      .map(n => meanOf(TestPipeline.sliding(attrib, spec, n), "entropy"))
    assert(means(0) < means(1) && means(1) < means(2), s"got $means")
    assert(means(0) > 3.3 && means(0) < 4.2)
  }
}
