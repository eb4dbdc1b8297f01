package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Sliding block-index windows — the paper's methodological contribution
  * (§III): windows of `N` consecutive blocks advanced by a step of `M`
  * blocks, so consecutive windows share `N − M` blocks and cross-interval
  * changes are not lost at window boundaries.
  *
  * Window `j` (0-based) covers block indices `[j·M, j·M + N)`; over `S`
  * blocks there are `L = ⌊(S − N)/M⌋ + 1` windows (paper Eq. 5). The paper
  * fixes `M = N/2`, roughly doubling the number of measurement results.
  */
object SlidingWindows {

  /** The paper's step for window size `n`: `M = N/2` (at least one block). */
  def paperStep(n: Long): Long = math.max(1L, n / 2)

  /** Number of windows (paper Eq. 5). */
  def numWindows(totalBlocks: Long, n: Long, m: Long): Long = {
    require(n > 0 && m > 0, s"bad window/step ($n, $m)")
    if (totalBlocks < n) 0L else (totalBlocks - n) / m + 1L
  }

  /** Attribution rows replicated into every sliding window containing their
    * block: adds `window_id`. A block at index `i` belongs to windows
    * `j ∈ [⌈(i−N+1)/M⌉, ⌊i/M⌋]` clamped to `[0, L−1]` — with `M = N/2` that
    * is at most 2 windows. Implemented with `explode(sequence(lo, hi))`, the
    * Catalyst form of a banded self-join.
    */
  def assign(attrib: DataFrame, n: Long, m: Long, totalBlocks: Long): DataFrame = {
    val l = numWindows(totalBlocks, n, m)
    if (l == 0L) {
      // No window fits: empty result with the expected schema.
      return attrib.withColumn("window_id", lit(0L)).where(lit(false))
    }
    val rawHi = floor(col("idx") / lit(m)).cast(LongType)
    val rawLo = ceil((col("idx") - lit(n) + lit(1L)).cast(DoubleType) / lit(m.toDouble)).cast(LongType)
    val hi    = least(lit(l - 1L), rawHi)
    val lo    = greatest(lit(0L), rawLo)
    attrib
      .withColumn("w_lo", lo)
      .withColumn("w_hi", hi)
      .where(col("w_lo") <= col("w_hi"))
      .withColumn("window_id", explode(sequence(col("w_lo"), col("w_hi"))))
      .drop("w_lo", "w_hi")
  }

  /** Per-window per-producer block counts: `(window_id, miner, cnt)`. */
  def counts(attrib: DataFrame, n: Long, m: Long, totalBlocks: Long): DataFrame =
    assign(attrib, n, m, totalBlocks)
      .groupBy(col("window_id"), col("miner"))
      .agg(count(lit(1)).as("cnt"))
}
