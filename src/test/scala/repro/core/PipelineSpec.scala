package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.physical.RangePartitioning
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropertyCheck, SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams}

/** End-to-end series and summary construction on a scaled BTC chain. */
class PipelineSpec extends SparkSpec with PropertyCheck {

  private lazy val spec   = ChainParams.btc2019.scaled(0.05) // 2,712 blocks
  private lazy val attrib: DataFrame =
    BlockGenerator.attributions(spark, spec, seed = 13L).cache()

  test("fixed daily series has one row per day with all metric columns") {
    val s = TestPipeline.fixed(attrib, FixedWindows.Daily)
    assert(s.count() === 365L)
    assert(s.columns.toSet ===
      Set("window_id", "producers", "attributions", "gini", "entropy", "nakamoto"))
  }

  test("fixed weekly and monthly series have 53 and 12 rows") {
    assert(TestPipeline.fixed(attrib, FixedWindows.Weekly).count() === 53L)
    assert(TestPipeline.fixed(attrib, FixedWindows.Monthly).count() === 12L)
  }

  test("sliding series length matches Eq. 5 with the default M = N/2") {
    val n = spec.slidingWeek
    val s = TestPipeline.sliding(attrib, spec, n)
    assert(s.count() === SlidingWindows.numWindows(spec.blockCount, n, n / 2))
  }

  test("sliding series with explicit step") {
    val n = spec.slidingWeek
    val s = TestPipeline.sliding(attrib, spec, n, m = n) // no overlap
    assert(s.count() === SlidingWindows.numWindows(spec.blockCount, n, n))
  }

  test("sliding rejects a non-positive step instead of using M = N/2") {
    for (m <- Seq(0L, -5L)) {
      val e = intercept[IllegalArgumentException](TestPipeline.sliding(attrib, spec, spec.slidingWeek, m))
      assert(e.getMessage.contains("bad window/step"), m)
    }
  }

  test("series window_ids are ordered and unique") {
    val ids = TestPipeline.fixed(attrib, FixedWindows.Monthly)
      .select("window_id").collect().map(_.getLong(0))
    assert(ids.toSeq === ids.sorted.toSeq)
    assert(ids.distinct.length === ids.length)
  }

  test("a day-sized sliding series from a repartitioned counts frame is strictly increasing") {
    val (n, m) = (spec.slidingDay, SlidingWindows.paperStep(spec.slidingDay))
    val counts = SlidingWindows.counts(attrib, n, m, spec.blockCount).repartition(16)
    val ids = TestPipeline.series(counts).select("window_id").collect().map(_.getLong(0))
    assert(ids.length.toLong === SlidingWindows.numWindows(spec.blockCount, n, m))
    assert(ids.sliding(2).forall { case Array(a, b) => a < b })
  }

  test("a series is ordered without a range shuffle, and its summary adds no exchange") {
    for (s <- Seq(TestPipeline.fixed(attrib, FixedWindows.Daily), TestPipeline.sliding(attrib, spec, spec.slidingDay))) {
      val shuffles = executedShuffles(s)
      assert(!shuffles.exists(_.outputPartitioning.isInstanceOf[RangePartitioning]))
      assert(executedShuffles(Pipeline.summary(s)).size === shuffles.size)
    }
  }

  test("metric values are within their mathematical ranges everywhere") {
    val s = TestPipeline.fixed(attrib, FixedWindows.Daily).cache()
    assert(s.where(col("gini") < 0 || col("gini") >= 1).count() === 0L)
    assert(s.where(col("entropy") < 0).count() === 0L)
    assert(s.where(col("nakamoto") < 1 || col("nakamoto") > col("producers")).count() === 0L)
    // entropy <= log2(producers)
    assert(s.where(col("entropy") > log2(col("producers").cast("double")) + 1e-9).count() === 0L)
  }

  test("summary has one row per metric with finite stats") {
    val sum = Pipeline.summary(TestPipeline.fixed(attrib, FixedWindows.Weekly))
    val rows = sum.collect()
    assert(rows.map(_.getString(0)).sorted === Array("entropy", "gini", "nakamoto"))
    for (r <- rows) {
      val mean = r.getDouble(r.fieldIndex("mean"))
      val std  = r.getDouble(r.fieldIndex("stddev"))
      val mn   = r.getDouble(r.fieldIndex("min"))
      val mx   = r.getDouble(r.fieldIndex("max"))
      assert(!mean.isNaN && !std.isNaN)
      assert(mn <= mean && mean <= mx)
      assert(r.getLong(r.fieldIndex("windows")) === 53L)
    }
  }

  test("summary mean equals the hand-computed column average") {
    val series = TestPipeline.fixed(attrib, FixedWindows.Monthly).cache()
    val sum    = Pipeline.summary(series)
    val giniMean = sum.where(col("metric") === "gini").first().getDouble(1)
    val direct   = series.agg(avg("gini")).first().getDouble(0)
    assert(math.abs(giniMean - direct) < 1e-12)
  }

  test("property: the driver-side summary equals Spark's avg, stddev_samp, min and max in one partition, bit for bit") {
    import spark.implicits._
    def bits(v: Option[Double]) = v.map(java.lang.Double.doubleToRawLongBits)
    def agrees(xs: List[Double]): Boolean = {
      val r = xs.toDF("x").coalesce(1).agg(avg("x"), stddev_samp("x"), min("x"), max("x")).first()
      val s = Tables.summarize(xs).get
      Seq(Some(s.mean), s.stddev, Some(s.min), Some(s.max)).map(bits) ===
        (0 to 3).map(i => bits(Option(r.get(i)).map(_.asInstanceOf[Double])))
    }
    assert(agrees(List(0.25)) && Tables.summarize(List(0.25)).get.stddev.isEmpty, "one window has no stddev")
    val value = Gen.oneOf(Gen.choose(0.0, 1.0), Gen.choose(-1e4, 1e4), Gen.choose(1, 200).map(_.toDouble))
    checkProp(Prop.forAllNoShrink(Gen.choose(1, 400).flatMap(Gen.listOfN(_, value)))(agrees), minSuccessful = 30)
  }

  test("attributions per fixed window sum back to the table size") {
    val s = TestPipeline.fixed(attrib, FixedWindows.Daily)
    assert(s.agg(sum("attributions")).first().getLong(0) === attrib.count())
  }

  test("sliding attribution totals respect the overlap factor") {
    val n = spec.slidingMonth; val m = n / 2
    val s = TestPipeline.sliding(attrib, spec, n, m)
    val tot = s.agg(sum("attributions")).first().getLong(0)
    // Each interior block counted twice; bounded by 2 × attributions.
    assert(tot > attrib.count())
    assert(tot <= 2L * attrib.count())
  }
}
