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
    * and block-number range per chain. One window holding the whole table
    * (`lit(0)` as a `Point`) gives blocks, attributions, producers and the
    * range of its block bitmaps; the daily series gives the days. Both chains
    * are folded in one Spark job. An empty table has no window: 0 of each
    * count and no range.
    */
  def t1Dataset(chains: Seq[(ChainSpec, DataFrame)]): DataFrame = {
    val measured = Metrics.windows(chains.map(_._2), Seq(lit(0L) -> Metrics.Point, col("day") -> Metrics.Point),
      col("miner"), lit(1L), col("block_number"))
    val rows = chains.zip(measured).map { case ((spec, _), series) =>
      val Seq(whole, days) = series
      def count(f: Metrics.Measured => Long) = whole.headOption.fold(0L)(f)
      val range = whole.headOption.flatMap(_.blockRange)
      (spec.name, count(_.blocks), count(_.attributions), count(_.producers), range.map(_._1), range.map(_._2),
       days.size.toLong)
    }
    chains.head._2.sparkSession.createDataFrame(rows)
      .toDF("chain", "blocks", "attributions", "producers", "first_block", "last_block", "days")
  }

  /** A series of a report table: the windows of one granularity under one windowing mode. */
  private[core] sealed abstract class Series(val granularity: String)

  /** The calendar windows of `g` (paper §II-C), read from the attribution column of `g`. */
  private[core] final case class Fixed(g: FixedWindows.Granularity) extends Series(g.name)

  /** Sliding windows of `n` blocks advanced by `m` over `blocks` blocks (paper §III, Eq. 5). */
  private[core] final case class Sliding(name: String, n: Long, m: Long, blocks: Long) extends Series(name)

  private val fixedSeries: Seq[Series] = FixedWindows.all.map(Fixed)

  /** Each granularity's sliding window size, with the paper's step. */
  private def slidingSeries(spec: ChainSpec): Seq[Sliding] = FixedWindows.all.map { g =>
    val n = g.slidingSize(spec)
    Sliding(g.name, n, SlidingWindows.paperStep(n), spec.blockCount)
  }

  /** The measured windows of `series` over each attribution table of `chains`: per chain, per
    * series, its windows ascending, counting the distinct blocks of column `block` (none for a
    * null literal). [[Metrics.windows]] folds only `miner` and the columns the series read: a
    * fixed series counts a row in window v, its `day`, `week` or `month`; a sliding series in
    * the windows of its band that hold its `idx`. The chains are unioned into one Spark job
    * whose tasks each return one buffer of per-window producer counts; the driver merges and
    * measures them, and the few hundred windows per series that follow are summarized there too.
    */
  private[core] def windowsOf(chains: Seq[DataFrame], series: Seq[Series],
                              block: Column = lit(null)): Seq[Seq[Seq[Metrics.Measured]]] =
    Metrics.windows(chains, series.map {
      case Fixed(g)   => col(g.column) -> Metrics.Point
      case s: Sliding => col("idx") -> Metrics.Band(s.n, s.m, SlidingWindows.numWindows(s.blocks, s.n, s.m))
    }, col("miner"), lit(1L), block)

  /** Summary statistics of one metric over a series: the mean, sample standard deviation (none
    * for one window), minimum and maximum of its values.
    */
  private[core] final case class Stats(mean: Double, stddev: Option[Double], min: Double, max: Double)

  /** The summary of `xs`, a series' values in window order (none without a value), with Spark's
    * arithmetic over one partition in that order, so it is bit-identical to [[Pipeline.summary]]:
    * `avg` sums from 0.0 and divides by n; `stddev_samp` takes the square root of Welford's m2
    * (the update of Spark's `CentralMomentAgg`) over n − 1; `min` and `max` keep the first of
    * equal values.
    */
  private[core] def summarize(xs: Seq[Double]): Option[Stats] =
    Option.when(xs.nonEmpty) {
      var sum, n, avg, m2 = 0.0
      var lo, hi = xs.head
      for (x <- xs) {
        sum += x
        val delta  = x - avg
        val deltaN = delta / (n + 1.0)
        n += 1.0
        avg += deltaN
        m2 += delta * (delta - deltaN)
        if (x < lo) lo = x
        if (x > hi) hi = x
      }
      Stats(sum / n, Option.when(n >= 2.0)(math.sqrt(m2 / (n - 1.0))), lo, hi)
    }

  /** The number of values of `xs`, a series in window order, that lie more than `z` sample
    * standard deviations from its mean, as [[Anomaly.countExtremes]] counts them.
    */
  private[core] def extremeCount(xs: Seq[Double], z: Double): Long = summarize(xs) match {
    case Some(Stats(mu, Some(sigma), _, _)) => xs.count(x => sigma > 0 && math.abs(x - mu) > sigma * z).toLong
    case _                                  => 0L
  }

  /** The summary of each metric (as [[Metrics.names]]) over `windows`, a series' windows in order. */
  private def stats(windows: Seq[Metrics.Measured]): Seq[Option[Stats]] =
    Metrics.names.indices.map(i => summarize(windows.map(_.metrics(i))))

  /** T2 / T3 — fixed-window metric summaries (paper Figs. 1–3 / 4–6): for
    * each granularity, mean/stddev/min/max of each metric across windows.
    * A granularity with no window has no row.
    */
  def fixedSummary(chain: String, attrib: DataFrame): DataFrame = {
    val Seq(windows) = windowsOf(Seq(attrib), fixedSeries)
    val rows = for ((g, ws) <- fixedSeries.zip(windows); (m, Some(s)) <- Metrics.names.zip(stats(ws)))
      yield (chain, g.granularity, m, s.mean, s.stddev, s.min, s.max, ws.size.toLong)
    attrib.sparkSession.createDataFrame(rows)
      .toDF("chain", "granularity", "metric", "mean", "stddev", "min", "max", "windows")
  }

  /** T4 — sliding-window summary (paper §III-B in-text averages and Eq. 5
    * result counts): per chain and window size, L plus each metric's mean.
    * A size with no window (S < N) reports 0 windows and no means.
    */
  def slidingSummary(spec: ChainSpec, attrib: DataFrame): DataFrame = {
    val series = slidingSeries(spec)
    val Seq(windows) = windowsOf(Seq(attrib), series)
    val rows = series.zip(windows).map { case (s, ws) =>
      val Seq(gini, entropy, nakamoto) = stats(ws).map(_.map(_.mean))
      (spec.name, s.name, s.n, s.m, SlidingWindows.numWindows(s.blocks, s.n, s.m), ws.size.toLong, gini, entropy, nakamoto)
    }
    attrib.sparkSession.createDataFrame(rows).toDF("chain", "window", "n_blocks", "step", "expected_L", "windows",
      "mean_gini", "mean_entropy", "mean_nakamoto")
  }

  /** T5's z threshold: a window is extreme when it lies more than 2 sample stddevs from its series' mean. */
  private[core] val ExtremeZ = 2.0

  /** T5 — information revealed by sliding vs fixed windows (paper Figs. 9/13
    * vs 2/3): per granularity and metric, the number of measurement results
    * and of extremes more than [[ExtremeZ]] standard deviations out under each
    * windowing mode. A series with no window (S < N) has 0 results and 0 extremes.
    */
  def revealSummary(spec: ChainSpec, attrib: DataFrame): DataFrame = {
    val Seq(windows) = windowsOf(Seq(attrib), fixedSeries ++ slidingSeries(spec))
    val (fixed, sliding) = windows.splitAt(fixedSeries.size)
    val rows = for ((g, (f, s)) <- fixedSeries.zip(fixed.zip(sliding)); (metric, i) <- Metrics.names.zipWithIndex)
      yield (spec.name, g.granularity, metric, f.size.toLong, extremeCount(f.map(_.metrics(i)), ExtremeZ),
             s.size.toLong, extremeCount(s.map(_.metrics(i)), ExtremeZ))
    attrib.sparkSession.createDataFrame(rows).toDF("chain", "granularity", "metric",
      "results_fixed", "extremes_fixed", "results_sliding", "extremes_sliding")
  }

  /** T6 — the day-14 Bitcoin case study (paper §II-C-1d): daily metrics for
    * days 12–16 in that order, then the all-year daily mean, with true block
    * counts (an anomalous day has far more attributions than blocks). The daily
    * series, blocks per day included, is one fold of the table; each count
    * column's mean is truncated to a whole number.
    */
  def day14Case(attrib: DataFrame): DataFrame = {
    val Seq(Seq(days)) = windowsOf(Seq(attrib), Seq(Fixed(FixedWindows.Daily)), col("block_number"))
    def row(label: String, ws: Seq[Metrics.Measured]) = {
      def mean(f: Metrics.Measured => Double) = summarize(ws.map(f)).get.mean
      (label, mean(_.blocks.toDouble).toLong, mean(_.producers.toDouble).toLong, mean(_.attributions.toDouble).toLong,
       mean(_.gini), mean(_.entropy), mean(_.nakamoto.toDouble).toLong)
    }
    val rows = days.filter(d => d.window_id >= 12 && d.window_id <= 16).map(d => row(s"day_${d.window_id}", Seq(d))) ++
      Option.when(days.nonEmpty)(row("daily_mean", days))
    attrib.sparkSession.createDataFrame(rows)
      .toDF("label", "blocks", "producers", "attributions", "gini", "entropy", "nakamoto")
  }

  /** T7 — Bitcoin vs Ethereum (paper §II-C-3): per granularity and metric,
    * each chain's mean and stddev plus which chain is more decentralized and
    * which is more stable. Lower Gini, higher entropy and higher Nakamoto
    * all mean *more* decentralized; lower stddev means more stable. A
    * comparison with a missing side names Ethereum.
    */
  def comparison(btcAttrib: DataFrame, ethAttrib: DataFrame): DataFrame = {
    val Seq(btc, eth) = windowsOf(Seq(btcAttrib, ethAttrib), fixedSeries).map(_.map(stats))
    def winner(btcWins: (Double, Double) => Boolean, b: Option[Double], e: Option[Double]) =
      if (b.zip(e).exists(btcWins.tupled)) "bitcoin" else "ethereum"
    val rows = for ((g, (b, e)) <- fixedSeries.zip(btc.zip(eth)); (m, (bs, es)) <- Metrics.names.zip(b.zip(e))
                    if bs.isDefined || es.isDefined) yield {
      val (bMean, eMean, bSd, eSd) = (bs.map(_.mean), es.map(_.mean), bs.flatMap(_.stddev), es.flatMap(_.stddev))
      (g.granularity, m, bMean, eMean, winner(if (m == "gini") _ < _ else _ > _, bMean, eMean),
       bSd, eSd, winner(_ < _, bSd, eSd))
    }
    btcAttrib.sparkSession.createDataFrame(rows).toDF("granularity", "metric", "btc_mean", "eth_mean",
      "more_decentralized", "btc_stddev", "eth_stddev", "more_stable")
  }
}
