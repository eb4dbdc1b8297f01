package repro

import org.apache.spark.sql.DataFrame
import repro.chain.ChainSpec
import repro.core.{FixedWindows, Metrics, SlidingWindows}

/** The Spark reference path, one series per call: per-block window counts (`FixedWindows.counts`,
  * `SlidingWindows.counts`), then [[Metrics.all]], in window order. The report tables measure
  * the same series straight from the attribution table, one fold per partition merged on the
  * driver (`Tables.windowsOf`); tests check them against these series and build Spark series of
  * their own from them.
  */
object TestPipeline {

  /** The metric series of one window-counts frame, `(window_id, producers, attributions, gini,
    * entropy, nakamoto)`, in one partition sorted by `window_id`. A series has one row per window
    * (365 daily, at most 752 sliding at paper scale), so it is sorted locally: no sampling job
    * and no range shuffle.
    */
  def series(counts: DataFrame): DataFrame =
    Metrics.all(counts).coalesce(1).sortWithinPartitions("window_id")

  /** Fixed-window series for one granularity. */
  def fixed(attrib: DataFrame, g: FixedWindows.Granularity): DataFrame =
    series(FixedWindows.counts(attrib, g))

  /** Sliding-window series for window size `n` and step `m`. */
  def sliding(attrib: DataFrame, spec: ChainSpec, n: Long, m: Long): DataFrame =
    series(SlidingWindows.counts(attrib, n, m, spec.blockCount))

  /** Sliding-window series for window size `n` with the paper's step. */
  def sliding(attrib: DataFrame, spec: ChainSpec, n: Long): DataFrame =
    sliding(attrib, spec, n, SlidingWindows.paperStep(n))

  /** Calendar month (1–12) of a 1-based day-of-year in a non-leap year: the Scala mirror of
    * the `month` column of `BlockGenerator.attributions`.
    */
  def monthOfDay(day: Int): Int = {
    require(day >= 1 && day <= 365, s"bad day $day")
    val cum = Array(31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365)
    cum.indexWhere(day <= _) + 1
  }
}
