package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The Spark summary of a metric series, the reference for the report tables'
  * driver-side summaries (see `Tables.summarize`).
  */
object Pipeline {

  /** Summary statistics of the series `s` (one series of [[Metrics.all]]): one row per metric
    * (gini, entropy, nakamoto, in that order) with `(metric, mean, stddev, min, max, windows)`,
    * from a single global aggregation.
    */
  def summary(s: DataFrame): DataFrame = {
    val stats = Metrics.names.flatMap { m =>
      val x = col(m).cast("double")
      Seq(avg(col(m)).as(s"${m}_mean"), stddev_samp(x).as(s"${m}_stddev"),
          min(x).as(s"${m}_min"), max(x).as(s"${m}_max"))
    }
    val rows = Metrics.names.map(m => s"'$m', ${m}_mean, ${m}_stddev, ${m}_min, ${m}_max").mkString(", ")
    s.agg(count(lit(1)).as("windows"), stats: _*)
      .select(expr(s"stack(${Metrics.names.size}, $rows) AS (metric, mean, stddev, min, max)"), col("windows"))
  }
}
