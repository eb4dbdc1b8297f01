package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame, Encoder, Encoders}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import org.roaringbitmap.RoaringBitmap

/** The paper's three decentralization metrics, computed per window by one
  * kernel over the window's per-producer block counts, sorted once.
  *
  * Numeric notes:
  *   - Gini (Eq. 1) uses the rank formula `G = (2·Σ rank·x − (n+1)·Σx) / (n·Σx)`
  *     over ascending counts and stays in `Long` arithmetic until a single
  *     final division, so it is bit-identical to any other engine using the
  *     same formula (the DuckDB oracle compares it exactly).
  *   - Entropy (Eq. 2–3) uses `p·log₂(1/p)` (not `−p·log₂ p`) so a
  *     single-producer window yields +0.0 rather than −0.0. Its terms are
  *     summed in ascending count order, so the sum does not depend on the
  *     order in which rows or partial counts arrive.
  *   - Nakamoto (Eq. 4) adds counts largest first until the integer-exact
  *     test `cum·100 ≥ tot·51` holds. Tied producers share a count, so no
  *     tie-break is needed.
  */
object Metrics {

  /** The metric columns of a series, in report order. */
  val names: Seq[String] = Seq("gini", "entropy", "nakamoto")

  /** Nakamoto threshold: the share (in percent) a coalition must reach. */
  private val MajorityPct = 51L

  private val Ln2 = math.log(2.0)

  private val CountsMustBePositive = "block counts must be positive"
  private val NullProducer         = "a producer (miner) must not be null"
  private val NullWindow           = "a window id must not be null"
  private val OneSeries            = "a window-counts frame must have exactly the columns window_id, miner and cnt"

  /** One input row of [[Windows]]: a producer, the number of attributions it counts for (its
    * weight), its block number (no block when null) and, per series, the window-id range
    * `[lo(s), hi(s)]` it counts in (no window when lo > hi).
    */
  // Not `private`: Spark's generated encoder code cannot reach a private class.
  private[core] final case class Counted(miner: String, weight: java.lang.Long, block: java.lang.Long,
      lo: Array[java.lang.Long], hi: Array[java.lang.Long])

  /** Window `window_id` of series number `series`, measured; `blocks` is its number of distinct
    * blocks, `attributions` its summed producer counts.
    */
  private[core] final case class Measured(series: Int, window_id: Long, blocks: Long, producers: Long,
      attributions: Long, gini: Double, entropy: Double, nakamoto: Int) {
    /** The metric values, as [[Metrics.names]]. */
    def metrics: Seq[Double] = Seq(gini, entropy, nakamoto.toDouble)
  }

  private final class Count(var n: Long) extends Serializable

  /** One window's contents: producer → count, and high 32 bits of a block number → the low 32
    * bits of its blocks, so (high, low) identifies every `Long`. The bitmaps are allocated with
    * the first non-null block, so windows counted without blocks carry and ship none.
    */
  private final class Contents extends Serializable {
    val producers = mutable.HashMap.empty[String, Count]
    var blocks: mutable.LongMap[RoaringBitmap] = _

    def add(block: Long): Unit = {
      if (blocks == null) blocks = mutable.LongMap.empty
      blocks.getOrElseUpdate(block >> 32, new RoaringBitmap).add(block.toInt)
    }

    def addAll(that: Contents): Unit = {
      for ((p, c) <- that.producers) producers.getOrElseUpdate(p, new Count(0L)).n += c.n
      if (that.blocks != null) {
        if (blocks == null) blocks = mutable.LongMap.empty
        for ((h, bits) <- that.blocks) blocks.get(h).fold(blocks(h) = bits)(_.or(bits))
      }
    }

    def blockCount: Long = if (blocks == null) 0L else blocks.valuesIterator.map(_.getLongCardinality).sum
  }

  /** Per series, window id → its contents. */
  private type Buffer = Array[mutable.LongMap[Contents]]

  /** Gini, entropy and Nakamoto of one window's per-producer counts `xs`, which it sorts in place. */
  private def measure(xs: Array[Long]): (Double, Double, Int) = {
    require(xs.forall(_ > 0), CountsMustBePositive)
    java.util.Arrays.sort(xs)
    val n   = xs.length.toLong
    val tot = xs.sum
    val s1  = xs.indices.iterator.map(i => (i + 1L) * xs(i)).sum
    val gini    = (2L * s1 - (n + 1L) * tot).toDouble / (n * tot).toDouble
    val entropy = xs.iterator.map { x => val p = x.toDouble / tot; p * (math.log(1.0 / p) / Ln2) }.sum
    var cum = 0L
    var k   = 0
    while (cum * 100L < tot * MajorityPct) { cum += xs(xs.length - 1 - k); k += 1 }
    (gini, entropy, k)
  }

  /** Per-producer counts and distinct blocks of every window of `series` series as one
    * decomposable aggregate (partial buffers per task, merged by adding counts and OR-ing
    * blocks; Yu, Gunda & Isard, SOSP 2009), finished by measuring every window: one
    * [[Measured]] per (series, window), in that order.
    * Blocks are compressed bitmaps (Chambi et al., "Better bitmap performance with Roaring
    * bitmaps", SPE 2016): 32-bit bitmaps under a hash map, as a `Roaring64Bitmap` walks a radix
    * tree on every insert, which made a distinct-block count over 2.2 M rows about a fifth
    * slower, and `Roaring64NavigableMap` fails in its cardinality after OR-merging bitmaps that
    * hold negative and positive numbers.
    */
  private final class Windows(series: Int) extends Aggregator[Counted, Buffer, Seq[Measured]] {

    def zero: Buffer = Array.fill(series)(mutable.LongMap.empty[Contents])

    def reduce(b: Buffer, in: Counted): Buffer = {
      require(in.miner != null, NullProducer)
      require(in.weight != null, CountsMustBePositive)
      val weight = in.weight.longValue
      var s = 0
      while (s < series) {
        require(in.lo(s) != null && in.hi(s) != null, NullWindow)
        var w = in.lo(s).longValue
        val hi = in.hi(s).longValue
        while (w <= hi) {
          val window = b(s).getOrElseUpdate(w, new Contents)
          window.producers.getOrElseUpdate(in.miner, new Count(0L)).n += weight
          if (in.block != null) window.add(in.block.longValue)
          w += 1
        }
        s += 1
      }
      b
    }

    def merge(b1: Buffer, b2: Buffer): Buffer = {
      for (s <- 0 until series; (w, window) <- b2(s)) b1(s).get(w).fold(b1(s)(w) = window)(_.addAll(window))
      b1
    }

    def finish(b: Buffer): Seq[Measured] =
      for (s <- 0 until series; w <- b(s).keys.toSeq.sorted) yield {
        val window = b(s)(w)
        val xs = window.producers.valuesIterator.map(_.n).toArray
        val (gini, entropy, nakamoto) = measure(xs)
        Measured(s, w, window.blockCount, xs.length.toLong, xs.sum, gini, entropy, nakamoto)
      }

    def bufferEncoder: Encoder[Buffer]       = Encoders.javaSerialization[Buffer]
    def outputEncoder: Encoder[Seq[Measured]] = ExpressionEncoder[Seq[Measured]]()
  }

  /** The aggregate that counts each row `weight` times for `miner`, and its `block` once, in
    * every window of its range `(lo, hi)` of each series, then measures every window: an array
    * of `(series, window_id, blocks, producers, attributions, gini, entropy, nakamoto)` structs,
    * series by series in `ranges` order (numbered from 0), windows ascending, for `inline` to
    * unnest or the driver to collect (the fields of [[Measured]], in order). `blocks` counts a
    * window's distinct non-null blocks, as SQL's `COUNT(DISTINCT)`: a null `block` (a null
    * literal where blocks are not wanted) counts none. A null producer,
    * weight or range bound fails the query with a named error, as does a producer whose count is
    * not positive.
    */
  private[core] def windows(ranges: Seq[(Column, Column)], miner: Column, weight: Column, block: Column): Column =
    udaf(new Windows(ranges.size)).apply(miner, weight.cast(LongType), block.cast(LongType),
      array(ranges.map(_._1.cast(LongType)): _*), array(ranges.map(_._2.cast(LongType)): _*))

  /** All three metrics plus window population stats from the window-counts frame of one series
    * `(window_id: Long, miner: String, cnt: Long)`, one row per window:
    * `(window_id, producers, attributions, gini, entropy, nakamoto)`.
    *
    * A producer may have several rows in a window (partial counts); they add up. A summed
    * count that is null or not positive fails the query, as in [[LocalMetrics]]; so does a
    * null producer or window id. A frame with any other column fails with a named error rather
    * than measuring several series as one.
    */
  def all(counts: DataFrame): DataFrame = {
    require(counts.columns.sorted.sameElements(Array("cnt", "miner", "window_id")),
      s"$OneSeries, not ${counts.columns.mkString(", ")}")
    val window = col("window_id")
    counts.agg(windows(Seq(window -> window), col("miner"), col("cnt"), lit(null)).as("m"))
      .select(inline(col("m")))
      .drop("series", "blocks")
  }
}
