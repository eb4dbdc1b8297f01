package repro.core

import org.apache.spark.sql.{Column, DataFrame}
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

  /** `⌊a/b⌋` and `⌈a/b⌉` for `b > 0` in `Long` arithmetic: `a − pmod(a, b)` and `a + pmod(−a, b)`
    * are multiples of `b`, so the integral division is exact for negative `a` too.
    */
  private def floorDiv(a: Column, b: Long): Column = call_function("div", a - pmod(a, lit(b)), lit(b))
  private def ceilDiv(a: Column, b: Long): Column  = call_function("div", a + pmod(-a, lit(b)), lit(b))

  /** The windows containing block index `pos`, as the window-id range `[lo, hi]` (empty when
    * `lo > hi`), for windows of `n` blocks advanced by `m` of which there are `l`. Window `j`
    * holds blocks `[j·m, j·m + n)`, so `pos` is in windows `j ∈ [⌈(pos−n+1)/m⌉, ⌊pos/m⌋]`,
    * clamped to `[0, l−1]`. A null `pos` gives a null range (`greatest`/`least` skip nulls, so
    * the clamp alone would put it in every window).
    */
  private[core] def span(pos: Column, n: Long, m: Long, l: Long): (Column, Column) = {
    def unlessNull(c: Column) = when(pos.isNotNull, c)
    (unlessNull(greatest(lit(0L), ceilDiv(pos - lit(n - 1L), m))), unlessNull(least(lit(l - 1L), floorDiv(pos, m))))
  }

  /** Attribution rows replicated into every sliding window containing their
    * block: adds `window_id`. Each block joins the windows of its [[span]] —
    * with `M = N/2` at most 2. Implemented with `explode(sequence(lo, hi))`,
    * the Catalyst form of a banded self-join. This is the per-block reference
    * for the window counts the report tables aggregate without replicating rows.
    */
  def assign(attrib: DataFrame, n: Long, m: Long, totalBlocks: Long): DataFrame = {
    val (lo, hi) = span(col("idx"), n, m, numWindows(totalBlocks, n, m))
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
