package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.chain.ChainSpec

/** Fixed (non-overlapping calendar) measurement windows — the paper's
  * baseline windowing mode (§II-C): daily, weekly and monthly buckets of the
  * attribution table.
  */
object FixedWindows {

  /** A calendar granularity backed by a precomputed attribution column, and
    * the chain's sliding-window size `N` (in blocks) for the same span.
    */
  sealed abstract class Granularity(val name: String, val column: String, val slidingSize: ChainSpec => Long)
  case object Daily   extends Granularity("day", "day", _.slidingDay)
  case object Weekly  extends Granularity("week", "week", _.slidingWeek)
  case object Monthly extends Granularity("month", "month", _.slidingMonth)

  val all: Seq[Granularity] = Seq(Daily, Weekly, Monthly)

  /** Per-window per-producer block counts:
    * `(window_id: Long, miner, cnt)` where `window_id` is the day-of-year,
    * week-of-year or month number.
    */
  def counts(attrib: DataFrame, g: Granularity): DataFrame =
    attrib
      .groupBy(col(g.column).cast(LongType).as("window_id"), col("miner"))
      .agg(count(lit(1)).as("cnt"))
}
