package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Extreme-value detection over metric series — formalizes the paper's §III-B
  * observation that sliding windows "reveal additional cross-interval
  * information overlooked by the fixed window based measurements": a window
  * is *extreme* for a metric when it deviates from the series mean by more
  * than `z` sample standard deviations.
  */
object Anomaly {

  /** The z-test of `metric` in each window: its z-score against the whole series where it lies
    * more than `z` sample stddevs from the series mean, else null.
    */
  private def extremeZ(metric: String, z: Double): Column = {
    require(z > 0, s"bad z threshold $z")
    val x     = col(metric).cast("double")
    val mu    = avg(x).over()
    val sigma = stddev_samp(x).over()
    when(sigma > 0 && abs(x - mu) > sigma * lit(z), (x - mu) / sigma)
  }

  /** Windows of the metric series `series` whose `metric` value is more than `z` standard
    * deviations from the series mean. Returns `(window_id, value, zscore)`.
    */
  def extremes(series: DataFrame, metric: String, z: Double = 2.0): DataFrame =
    series
      .select(col("window_id"), col(metric).cast("double").as("value"), extremeZ(metric, z).as("zscore"))
      .where(col("zscore").isNotNull)
      .orderBy("window_id")

  /** Number of extreme windows for a metric. */
  def countExtremes(series: DataFrame, metric: String, z: Double = 2.0): Long =
    extremes(series, metric, z).count()
}
