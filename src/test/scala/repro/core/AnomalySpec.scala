package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestPipeline}
import repro.chain._

/** Extreme-value detection, including the paper's §III-A motivating scenario:
  * a dominance burst straddling a fixed-window boundary is visible to sliding
  * windows but invisible to fixed ones.
  */
class AnomalySpec extends SparkSpec {

  private def seriesOf(values: Seq[Double]) = {
    import spark.implicits._
    values.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toDF("window_id", "gini")
  }

  /** The number of extremes of `values` at `z`, asserting that T5's driver-side z-test counts
    * as many as [[Anomaly.countExtremes]].
    */
  private def extremeCount(values: Seq[Double], z: Double): Long = {
    val n = Anomaly.countExtremes(seriesOf(values), "gini", z)
    assert(Tables.extremeCount(values, z) === n, s"z = $z over $values")
    n
  }

  test("no extremes in a constant series") {
    assert(extremeCount(Seq.fill(20)(0.5), 2.0) === 0L)
  }

  test("a single window has no stddev and so no extreme") {
    assert(extremeCount(Seq(0.7), 1.0) === 0L)
  }

  test("a value exactly z standard deviations from the mean is not extreme") {
    // Mean 2 and sample stddev 2, exact in floating point: both ends lie exactly 1σ out.
    val values = Seq(0.0, 2.0, 4.0)
    assert(extremeCount(values, 1.0) === 0L)
    assert(extremeCount(values, 0.5) === 2L)
  }

  test("a single spike is flagged with the right z-score sign") {
    val s  = seriesOf(Seq.fill(30)(0.5) :+ 5.0)
    val ex = Anomaly.extremes(s, "gini", 2.0).collect()
    assert(ex.length === 1)
    assert(ex.head.getLong(0) === 30L)
    assert(ex.head.getDouble(2) > 2.0)
    assert(extremeCount(Seq.fill(30)(0.5) :+ 5.0, 2.0) === 1L)
  }

  test("a negative dip is flagged with negative z-score") {
    val s  = seriesOf(Seq.fill(30)(0.5) :+ -4.0)
    val ex = Anomaly.extremes(s, "gini", 2.0).collect()
    assert(ex.length === 1 && ex.head.getDouble(2) < -2.0)
    assert(extremeCount(Seq.fill(30)(0.5) :+ -4.0, 2.0) === 1L)
  }

  test("threshold z controls sensitivity") {
    val values = Seq(1, 1, 1, 1, 1, 1, 1, 1, 1, 2.2).map(_.toDouble)
    assert(extremeCount(values, 1.0) >= 1L)
    assert(extremeCount(values, 5.0) === 0L)
    intercept[IllegalArgumentException](Anomaly.extremes(seriesOf(values), "gini", 0.0))
  }

  test("works on integer metric columns (nakamoto)") {
    import spark.implicits._
    val values = Seq.fill(20)(4) :+ 40
    val s = values.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toDF("window_id", "nakamoto")
    assert(Anomaly.countExtremes(s, "nakamoto", 2.0) === 1L)
    assert(Tables.extremeCount(values.map(_.toDouble), 2.0) === 1L)
  }

  test("paper §III-A scenario: cross-boundary dominance burst is caught only by sliding windows") {
    // Build a 28-day mini-chain, 48 blocks/day, 8 equal miners — except days
    // 13–16 (last 2 days of week 2 + first 2 days of week 3) where one miner
    // produces ~everything.
    import spark.implicits._
    val blocksPerDay = 48
    val rows = for {
      day <- 1 to 28
      b   <- 0 until blocksPerDay
    } yield {
      val idx = (day - 1).toLong * blocksPerDay + b
      val miner =
        if (day >= 13 && day <= 16) "attacker"
        else s"m${idx % 8}"
      (idx, idx, s"w${(day - 1) / 7 + 1}", miner, day)
    }
    val attrib = rows.toDF("block_number", "idx", "weekLabel", "miner", "day")
      .withColumn("week", ((col("day") - 1) / 7).cast("int") + 1)

    // Fixed weekly windows: the burst is split across weeks 2 and 3; each week
    // still has 5 normal days, so the attacker holds 2/7 ≈ 29% — under 51%.
    val weekly = Metrics.all(
      attrib.groupBy(col("week").cast("long").as("window_id"), col("miner"))
        .agg(count(lit(1)).as("cnt")))
    val weeklyValues = weekly.select("nakamoto").collect().map(_.getInt(0)).toSeq
    assert(!weeklyValues.contains(1), s"fixed weekly hid the burst: $weeklyValues")

    // Sliding weekly windows (N=336, M=168): one window spans days 8–14 or
    // 11–17 region aligned to the burst → attacker ≥ 51% → Nakamoto = 1.
    val total = 28L * blocksPerDay
    val sliding = Metrics.all(
      SlidingWindows.counts(attrib, n = 7L * blocksPerDay, m = 7L * blocksPerDay / 2, total))
    val slidingValues = sliding.select("nakamoto").collect().map(_.getInt(0)).toSeq
    assert(slidingValues.contains(1), s"sliding missed the burst: $slidingValues")
  }

  test("sliding windows flag the burst as a z-extreme that fixed windows miss") {
    import spark.implicits._
    val blocksPerDay = 48
    val rows = for {
      day <- 1 to 28; b <- 0 until blocksPerDay
    } yield {
      val idx = (day - 1).toLong * blocksPerDay + b
      val miner = if (day >= 13 && day <= 16) "attacker" else s"m${idx % 8}"
      (idx, idx, miner, day)
    }
    val attrib = rows.toDF("block_number", "idx", "miner", "day")
      .withColumn("week", ((col("day") - 1) / 7).cast("int") + 1)
    val total = 28L * blocksPerDay

    val fixedSeries = TestPipeline.series(
      attrib.groupBy(col("week").cast("long").as("window_id"), col("miner"))
        .agg(count(lit(1)).as("cnt")))
    val slidingSeries = TestPipeline.series(
      SlidingWindows.counts(attrib, 7L * blocksPerDay, 7L * blocksPerDay / 2, total))

    val minNakFixed   = fixedSeries.agg(min("nakamoto")).first().getInt(0)
    val minNakSliding = slidingSeries.agg(min("nakamoto")).first().getInt(0)
    assert(minNakSliding < minNakFixed,
      s"sliding should reach a lower Nakamoto ($minNakSliding vs $minNakFixed)")
  }
}
