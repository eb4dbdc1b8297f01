package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.chain.ChainSpec

/** End-to-end measurement pipeline: attribution table → per-window metric
  * series → summary statistics. This is the dataflow behind every figure in
  * the paper's evaluation.
  */
object Pipeline {

  /** Metric series from a window-counts frame:
    * `(keys…, window_id, producers, attributions, gini, entropy, nakamoto)`,
    * ordered by the series keys (see [[Metrics.keys]]), then `window_id`.
    *
    * A series has one row per window (365 daily, at most 752 sliding at
    * paper scale), and a report table's series together a few thousand, so
    * they are sorted locally in a single partition: no sampling job and no
    * range shuffle, and aggregations grouped by series key need no exchange.
    */
  def series(counts: DataFrame): DataFrame = ordered(Metrics.all(counts))

  /** Metric series `s` in one partition, sorted by their keys, then `window_id`. */
  private[core] def ordered(s: DataFrame): DataFrame =
    s.coalesce(1).sortWithinPartitions((Metrics.keys(s) :+ "window_id").map(col): _*)

  /** Fixed-window series for one granularity. */
  def fixed(attrib: DataFrame, g: FixedWindows.Granularity): DataFrame =
    series(FixedWindows.counts(attrib, g))

  /** Sliding-window series for window size `n` and step `m`. */
  def sliding(attrib: DataFrame, spec: ChainSpec, n: Long, m: Long): DataFrame =
    series(SlidingWindows.counts(attrib, n, m, spec.blockCount))

  /** Sliding-window series for window size `n` with the paper's step. */
  def sliding(attrib: DataFrame, spec: ChainSpec, n: Long): DataFrame =
    sliding(attrib, spec, n, SlidingWindows.paperStep(n))

  /** Summary statistics of each series in `s`: one row per series and metric (gini, entropy,
    * nakamoto, in that order) with `(keys…, metric, mean, stddev, min, max, windows)`, from a
    * single aggregation grouped by the series keys.
    */
  def summary(s: DataFrame): DataFrame = {
    val keys = Metrics.keys(s).map(col)
    val stats = Metrics.names.flatMap { m =>
      val x = col(m).cast("double")
      Seq(avg(col(m)).as(s"${m}_mean"), stddev_samp(x).as(s"${m}_stddev"),
          min(x).as(s"${m}_min"), max(x).as(s"${m}_max"))
    }
    val rows = Metrics.names.map(m => s"'$m', ${m}_mean, ${m}_stddev, ${m}_min, ${m}_max").mkString(", ")
    s.groupBy(keys: _*).agg(count(lit(1)).as("windows"), stats: _*)
      .select(keys ++ Seq(expr(s"stack(${Metrics.names.size}, $rows) AS (metric, mean, stddev, min, max)"),
        col("windows")): _*)
  }
}
