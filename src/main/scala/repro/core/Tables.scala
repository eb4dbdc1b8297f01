package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.chain.ChainSpec

/** One function per reproduced evaluation table (T1–T7; see DESIGN.md §4 for
  * the paper-source mapping). Each takes attribution tables and returns a
  * small report DataFrame.
  */
object Tables {

  /** T1 — dataset summary (paper §II-A): block/attribution/producer counts
    * and block-number range per chain, each chain one global aggregation.
    * Blocks and producers are those of one window holding the whole table; an
    * empty table has no window, so 0 of each.
    */
  def t1Dataset(chains: Seq[(ChainSpec, DataFrame)]): DataFrame =
    chains
      .map { case (spec, attrib) =>
        val all = Metrics.windows(Seq(lit(0L) -> lit(0L)), col("miner"), lit(1L), col("block_number"))
        // Fields read after the aggregation: reading two inside it would run the aggregate twice.
        def whole(c: String) = coalesce(col(s"whole.$c"), lit(0L)).as(c)
        attrib.agg(
          try_element_at(all, lit(1)).as("whole"),
          count(lit(1)).as("attributions"),
          min("block_number").as("first_block"),
          max("block_number").as("last_block"),
          size(collect_set("day")).cast("long").as("days"),
        ).select(lit(spec.name).as("chain"), whole("blocks"), col("attributions"), whole("producers"),
          col("first_block"), col("last_block"), col("days"))
      }
      .reduce(_ unionByName _)

  /** A series of a report table: the windows of one granularity under one windowing mode. */
  private[core] sealed abstract class Series(val granularity: String, val mode: String)

  /** The calendar windows of `g` (paper §II-C), read from the attribution column of `g`. */
  private[core] final case class Fixed(g: FixedWindows.Granularity) extends Series(g.name, "fixed")

  /** Sliding windows of `n` blocks advanced by `m` over `blocks` blocks (paper §III, Eq. 5). */
  private[core] final case class Sliding(name: String, n: Long, m: Long, blocks: Long)
      extends Series(name, "sliding")

  private val fixedSeries: Seq[Series] = FixedWindows.all.map(Fixed)

  /** Each granularity's sliding window size, with the paper's step. */
  private def slidingSeries(spec: ChainSpec): Seq[Series] = FixedWindows.all.map { g =>
    val n = g.slidingSize(spec)
    Sliding(g.name, n, SlidingWindows.paperStep(n), spec.blockCount)
  }

  /** The metric series of `series` over each chain's attribution table, keyed
    * `(chain, granularity, mode)` and ordered as [[Pipeline.series]] in one partition, so later
    * aggregations by key need no exchange. Each chain is one global aggregation
    * ([[Metrics.windows]]) over only `miner` and the columns its series read: a fixed series
    * counts a row in window `[v, v]`, v its `day`, `week` or `month`; a sliding series in the
    * windows [[SlidingWindows.span]] gives its `idx`. Each map task ships one buffer of
    * per-window producer counts: one shuffle record per partition of the attribution table.
    */
  private[core] def seriesOf(chains: Seq[(String, DataFrame)], series: Seq[Series]): DataFrame = {
    def key(of: Series => String) = element_at(array(series.map(s => lit(of(s))): _*), col("series") + 1)
    Pipeline.ordered(chains.map { case (chain, attrib) =>
      attrib.select(inline(measured(series, lit(null))))
        .select(Seq(lit(chain).as("chain"), key(_.granularity).as("granularity"), key(_.mode).as("mode")) ++
          (Seq("window_id", "producers", "attributions") ++ Metrics.names).map(col): _*)
    }.reduce(_ unionByName _))
  }

  /** The [[Metrics.windows]] aggregate of `series` over an attribution table, series numbered
    * from 0 in `series` order, counting the distinct blocks of column `block`.
    */
  private def measured(series: Seq[Series], block: Column): Column = {
    val ranges = series.map {
      case Fixed(g)   => val v = col(g.column); (v, v)
      case s: Sliding => SlidingWindows.span(col("idx"), s.n, s.m, SlidingWindows.numWindows(s.blocks, s.n, s.m))
    }
    Metrics.windows(ranges, col("miner"), lit(1L), block)
  }

  /** Report order: granularities day, week, month; metrics as [[Metrics.names]]. */
  private val reportOrder: Seq[Column] = {
    def rank(c: String, values: Seq[String]) = array_position(array(values.map(lit): _*), col(c))
    Seq(rank("granularity", FixedWindows.all.map(_.name)), rank("metric", Metrics.names))
  }

  /** T2 / T3 — fixed-window metric summaries (paper Figs. 1–3 / 4–6): for
    * each granularity, mean/stddev/min/max of each metric across windows.
    */
  def fixedSummary(chain: String, attrib: DataFrame): DataFrame =
    Pipeline.summary(seriesOf(Seq(chain -> attrib), fixedSeries).drop("mode"))
      .orderBy(reportOrder: _*)

  /** T4 — sliding-window summary (paper §III-B in-text averages and Eq. 5
    * result counts): per chain and window size, L plus each metric's mean.
    * A size with no window (S < N) reports 0 windows and no means.
    */
  def slidingSummary(spec: ChainSpec, attrib: DataFrame): DataFrame = {
    val stats = Pipeline.summary(seriesOf(Seq(spec.name -> attrib), slidingSeries(spec))).collect()
      .map(r => (r.getAs[String]("granularity"), r.getAs[String]("metric")) -> r).toMap
    attrib.sparkSession.createDataFrame(FixedWindows.all.map { g =>
      val n = g.slidingSize(spec)
      val m = SlidingWindows.paperStep(n)
      def mean(metric: String) = stats.get((g.name, metric)).map(_.getAs[Double]("mean"))
      (spec.name, g.name, n, m, SlidingWindows.numWindows(spec.blockCount, n, m),
       stats.get((g.name, "gini")).fold(0L)(_.getAs[Long]("windows")), mean("gini"), mean("entropy"), mean("nakamoto"))
    }).toDF("chain", "window", "n_blocks", "step", "expected_L", "windows", "mean_gini", "mean_entropy", "mean_nakamoto")
  }

  /** T5 — information revealed by sliding vs fixed windows (paper Figs. 9/13
    * vs 2/3): per granularity and metric, the number of measurement results
    * and of z-score extremes under each windowing mode.
    */
  def revealSummary(spec: ChainSpec, attrib: DataFrame, z: Double = 2.0): DataFrame = {
    val series = seriesOf(Seq(spec.name -> attrib), fixedSeries ++ slidingSeries(spec))
    val found = Anomaly.extremeCounts(series, z).collect()
      .map(r => (r.getAs[String]("granularity"), r.getAs[String]("mode")) -> r).toMap
    // A series with no window (S < N) has no row: 0 results, 0 extremes.
    def of(g: String, mode: String, c: String) = found.get((g, mode)).fold(0L)(_.getAs[Long](c))
    val rows = for (g <- FixedWindows.all.map(_.name); metric <- Metrics.names)
      yield (spec.name, g, metric, of(g, "fixed", "results"), of(g, "fixed", metric),
             of(g, "sliding", "results"), of(g, "sliding", metric))
    attrib.sparkSession.createDataFrame(rows).toDF("chain", "granularity", "metric",
      "results_fixed", "extremes_fixed", "results_sliding", "extremes_sliding")
  }

  /** T6 — the day-14 Bitcoin case study (paper §II-C-1d): daily metrics for
    * days 12–16 in that order, then the all-year daily mean, with true block
    * counts (an anomalous day has far more attributions than blocks). The daily
    * series, blocks per day included, is one global aggregation; days 12–16 are
    * groups of their own, and every day also feeds `daily_mean`.
    */
  def day14Case(attrib: DataFrame): DataFrame = {
    val day = col("window_id")
    val labels = array_compact(array(when(day.between(12, 16), concat(lit("day_"), day)), lit("daily_mean")))
    attrib
      .select(inline(measured(Seq(Fixed(FixedWindows.Daily)), col("block_number"))))
      .select(explode(labels).as("label"), col("*"))
      .groupBy("label")
      .agg(
        avg("blocks").cast("long").as("blocks"),
        avg("producers").cast("long").as("producers"),
        avg("attributions").cast("long").as("attributions"),
        avg("gini").as("gini"),
        avg("entropy").as("entropy"),
        avg(col("nakamoto").cast("double")).cast("long").as("nakamoto"),
      )
      .sortWithinPartitions(col("label") === "daily_mean", col("label"))
  }

  /** T7 — Bitcoin vs Ethereum (paper §II-C-3): per granularity and metric,
    * each chain's mean and stddev plus which chain is more decentralized and
    * which is more stable. Lower Gini, higher entropy and higher Nakamoto
    * all mean *more* decentralized; lower stddev means more stable.
    */
  def comparison(btcAttrib: DataFrame, ethAttrib: DataFrame): DataFrame = {
    def of(chain: String, c: String) = first(when(col("chain") === chain, col(c)), ignoreNulls = true)
    def winner(btcWins: Column) = when(btcWins, "bitcoin").otherwise("ethereum")
    val (bMean, eMean) = (col("btc_mean"), col("eth_mean"))
    Pipeline.summary(seriesOf(Seq("bitcoin" -> btcAttrib, "ethereum" -> ethAttrib), fixedSeries))
      .groupBy("granularity", "metric")
      .agg(of("bitcoin", "mean").as("btc_mean"), of("ethereum", "mean").as("eth_mean"),
           of("bitcoin", "stddev").as("btc_stddev"), of("ethereum", "stddev").as("eth_stddev"))
      .orderBy(reportOrder: _*)
      .select(col("granularity"), col("metric"), bMean, eMean,
        winner(when(col("metric") === "gini", bMean < eMean).otherwise(bMean > eMean)).as("more_decentralized"),
        col("btc_stddev"), col("eth_stddev"), winner(col("btc_stddev") < col("eth_stddev")).as("more_stable"))
  }
}
