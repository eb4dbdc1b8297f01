package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

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

  /** The first and last of the `l` windows of `n` positions advanced by `m` that hold position
    * `p` (none when first > last): window `j` holds `[j·m, j·m + n)`, so `p` is in windows
    * `⌈(p−n+1)/m⌉ … ⌊p/m⌋`, clamped to `[0, l−1]`. `Math.floorDiv` is exact for negative `p` too.
    */
  def first(p: Long, n: Long, m: Long): Long = math.max(0L, Math.floorDiv(p - n + m, m))
  def last(p: Long, m: Long, l: Long): Long  = math.min(l - 1L, Math.floorDiv(p, m))

  /** Attribution rows replicated into every sliding window containing their block: adds
    * `window_id`. One UDF gives each `idx` its windows [[first]] … [[last]] (with `M = N/2` at
    * most 2), which `explode` unnests; a null `idx` gives none. This is the per-block reference
    * for the window counts the report tables aggregate without replicating rows.
    */
  def assign(attrib: DataFrame, n: Long, m: Long, totalBlocks: Long): DataFrame = {
    val l = numWindows(totalBlocks, n, m)
    val windows = udf((p: Long) => (first(p, n, m) to last(p, m, l)).toArray)
    attrib.withColumn("window_id", explode(windows(col("idx"))))
  }

  /** Per-window per-producer block counts: `(window_id, miner, cnt)`. */
  def counts(attrib: DataFrame, n: Long, m: Long, totalBlocks: Long): DataFrame =
    assign(attrib, n, m, totalBlocks)
      .groupBy(col("window_id"), col("miner"))
      .agg(count(lit(1)).as("cnt"))
}
