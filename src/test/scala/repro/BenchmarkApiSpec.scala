package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
import repro.core.{Anomaly, FixedWindows, LocalMetrics, Metrics, Pipeline, SlidingWindows, Tables}
import repro.jobs.Jobs
import repro.util.Render

/** The program API the benchmark (`perfbench/src`) compiles against, called
  * here with the benchmark's arity and types on a tiny chain. The benchmark's
  * sources do not change with the program, so a change that breaks one of
  * these calls must fail `Test/compile`, not the benchmark run.
  */
class BenchmarkApiSpec extends SparkSpec {

  test("every program name the benchmark calls keeps its signature and columns") {
    val specs: Seq[ChainSpec] = Seq(ChainParams.btc2019, ChainParams.eth2019)
    val spec: ChainSpec = specs.head.scaled(0.01)
    val (name, blocks): (String, Long) = (spec.name, spec.blockCount)
    val sizes: Seq[Long] = Seq(spec.slidingDay, spec.slidingWeek, spec.slidingMonth)

    val shared = spark // the suite's session exists first, so Jobs.session returns it
    val session: SparkSession = Jobs.session("benchmark-api")
    assert(session.sparkContext eq shared.sparkContext)
    val attrib: DataFrame = BlockGenerator.attributions(session, spec, 7L).cache()
    assert(attrib.select("idx", "block_number", "day", "week", "month", "miner").count() > 0L)

    val g: FixedWindows.Granularity = FixedWindows.Daily
    assert(g.column === "day")
    val fixed: DataFrame = FixedWindows.counts(attrib, g)
    val (n, m) = (sizes.head, math.max(1L, sizes.head / 2))
    val assigned: Long = SlidingWindows.assign(attrib, n, m, blocks).count()
    val sliding: DataFrame = SlidingWindows.counts(attrib, n, m, blocks)
    assert(sliding.count() > 0L && assigned >= attrib.count())

    val series: DataFrame = Metrics.all(fixed)
    for (r <- series.collect()) {
      val row = (r.getAs[Long]("window_id"), r.getAs[Long]("producers"), r.getAs[Long]("attributions"),
        r.getAs[Double]("gini"), r.getAs[Double]("entropy"), r.getAs[Number]("nakamoto").intValue)
      assert(row._2 >= 1L && row._6 >= 1)
    }
    val summary: Array[Row] = Pipeline.summary(series).collect()
    assert(summary.length === Metrics.names.size)
    val extremes: Long = Anomaly.countExtremes(series, "gini")
    assert(extremes >= 0L)

    val tables: Seq[DataFrame] = Seq(
      Tables.t1Dataset(Seq(spec -> attrib)),
      Tables.fixedSummary(name, attrib),
      Tables.slidingSummary(spec, attrib),
      Tables.day14Case(attrib),
    )
    for (t <- tables) { val text: String = Render.table(t); assert(text.linesIterator.size > 2) }

    val xs: Seq[Long] = Seq(4L, 3L, 2L, 1L)
    val local: (Double, Double, Int) = (LocalMetrics.gini(xs), LocalMetrics.entropy(xs), LocalMetrics.nakamoto(xs))
    assert(local._3 === 2)
    attrib.unpersist()
  }
}
