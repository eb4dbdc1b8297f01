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

  private val notKeys: Set[String] = Set("window_id", "miner", "cnt", "producers", "attributions") ++ names

  /** The series keys of a window-counts frame or a metric series: every column but the
    * window id, the producer counts, the window population and the metrics (none: one series).
    */
  def keys(df: DataFrame): Seq[String] = df.columns.toSeq.filterNot(notKeys)

  /** Nakamoto threshold: the share (in percent) a coalition must reach. */
  private val MajorityPct = 51L

  private val Ln2 = math.log(2.0)

  private val CountsMustBePositive = "block counts must be positive"
  private val NullProducer         = "a producer (miner) must not be null"
  private val NullWindow           = "a window id must not be null"

  /** One input row of [[Windows]]: a producer, the number of blocks it counts for (its weight)
    * and, per series, the window-id range `[lo(s), hi(s)]` it counts in (no window when lo > hi).
    */
  // Not `private`: Spark's generated encoder code cannot reach a private class.
  private[core] final case class Counted(
      miner: String, weight: java.lang.Long, lo: Array[java.lang.Long], hi: Array[java.lang.Long])

  /** Window `window_id` of series number `series`, measured. */
  private[core] final case class Measured(
      series: Int, window_id: Long, producers: Long, attributions: Long, gini: Double, entropy: Double, nakamoto: Int)

  private final class Count(var n: Long) extends Serializable

  /** Per series, window id → producer → block count. */
  private type Buffer = Array[mutable.LongMap[mutable.HashMap[String, Count]]]

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

  /** Per-producer window counts of `series` series as one decomposable aggregate (partial
    * buffers per task, merged by adding counts; Yu, Gunda & Isard, SOSP 2009), finished by
    * measuring every window: one [[Measured]] per (series, window), in that order.
    */
  private final class Windows(series: Int) extends Aggregator[Counted, Buffer, Seq[Measured]] {

    def zero: Buffer = Array.fill(series)(mutable.LongMap.empty[mutable.HashMap[String, Count]])

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
          b(s).getOrElseUpdate(w, mutable.HashMap.empty).getOrElseUpdate(in.miner, new Count(0L)).n += weight
          w += 1
        }
        s += 1
      }
      b
    }

    def merge(b1: Buffer, b2: Buffer): Buffer = {
      for (s <- 0 until series; (w, producers) <- b2(s)) b1(s).get(w) match {
        case None       => b1(s)(w) = producers
        case Some(into) => for ((p, c) <- producers) into.getOrElseUpdate(p, new Count(0L)).n += c.n
      }
      b1
    }

    def finish(b: Buffer): Seq[Measured] =
      for (s <- 0 until series; w <- b(s).keys.toSeq.sorted) yield {
        val xs = b(s)(w).valuesIterator.map(_.n).toArray
        val (gini, entropy, nakamoto) = measure(xs)
        Measured(s, w, xs.length.toLong, xs.sum, gini, entropy, nakamoto)
      }

    def bufferEncoder: Encoder[Buffer]       = Encoders.javaSerialization[Buffer]
    def outputEncoder: Encoder[Seq[Measured]] = ExpressionEncoder[Seq[Measured]]()
  }

  /** The aggregate that counts each row `weight` times for `miner` in every window of its
    * range `(lo, hi)` of each series, then measures every window: an array of
    * `(series, window_id, producers, attributions, gini, entropy, nakamoto)` structs, series by
    * series in `ranges` order (numbered from 0), windows ascending, for `inline` to unnest.
    * A null producer, weight or range bound fails the query with a named error, as does a
    * producer whose count is not positive.
    */
  private[core] def windows(ranges: Seq[(Column, Column)], miner: Column, weight: Column): Column =
    udaf(new Windows(ranges.size)).apply(miner, weight.cast(LongType),
      array(ranges.map(_._1.cast(LongType)): _*), array(ranges.map(_._2.cast(LongType)): _*))

  /** One input row of [[Blocks]]: a window id and a block number (no block when null). */
  private[core] final case class InWindow(window: java.lang.Long, block: java.lang.Long)

  /** Window id → high 32 bits of a block number → the low 32 bits of its blocks: the distinct
    * block numbers counted in each window, as (high, low) identifies every `Long`.
    */
  private type BlockSets = mutable.LongMap[mutable.LongMap[RoaringBitmap]]

  /** Distinct block numbers per window as one decomposable aggregate: partial buffers hold
    * compressed bitmaps of each window's blocks (Chambi et al., "Better bitmap performance with
    * Roaring bitmaps", SPE 2016), merged by OR; finished as window id → cardinality.
    * 32-bit bitmaps under a hash map: a `Roaring64Bitmap` walks a radix tree on every insert,
    * which made this aggregate over 2.2 M rows about a fifth slower, and `Roaring64NavigableMap`
    * fails in its cardinality after OR-merging bitmaps that hold negative and positive numbers.
    */
  private final class Blocks extends Aggregator[InWindow, BlockSets, Map[Long, Long]] {

    def zero: BlockSets = mutable.LongMap.empty

    def reduce(b: BlockSets, in: InWindow): BlockSets = {
      require(in.window != null, NullWindow)
      val bits = b.getOrElseUpdate(in.window.longValue, mutable.LongMap.empty)
      if (in.block != null) {
        val x = in.block.longValue
        bits.getOrElseUpdate(x >> 32, new RoaringBitmap).add(x.toInt)
      }
      b
    }

    def merge(b1: BlockSets, b2: BlockSets): BlockSets = {
      for ((w, highs) <- b2; into = b1.getOrElseUpdate(w, mutable.LongMap.empty); (h, bits) <- highs)
        into.get(h).fold(into(h) = bits)(_.or(bits))
      b1
    }

    def finish(b: BlockSets): Map[Long, Long] =
      b.iterator.map { case (w, highs) => w -> highs.valuesIterator.map(_.getLongCardinality).sum }.toMap

    def bufferEncoder: Encoder[BlockSets]        = Encoders.javaSerialization[BlockSets]
    def outputEncoder: Encoder[Map[Long, Long]] = ExpressionEncoder[Map[Long, Long]]()
  }

  /** The aggregate that counts the distinct `block`s of each `window`: a map from the window id
    * of every row to its number of distinct non-null blocks. A null block counts no block, as in
    * SQL's `COUNT(DISTINCT)` (a window whose blocks are all null maps to 0); a null window id
    * fails the query.
    */
  private[core] def blocks(window: Column, block: Column): Column =
    udaf(new Blocks).apply(window.cast(LongType), block.cast(LongType))

  /** All three metrics plus window population stats from a window-counts frame
    * `(keys…, window_id: Long, miner: String, cnt: Long)`, one row per window:
    * `(keys…, window_id, producers, attributions, gini, entropy, nakamoto)`.
    *
    * A producer may have several rows in a window (partial counts); they add up. A summed
    * count that is null or not positive fails the query, as in [[LocalMetrics]]; so does a
    * null producer or window id.
    */
  def all(counts: DataFrame): DataFrame = {
    val keys = Metrics.keys(counts).map(col)
    val window = col("window_id")
    counts.groupBy(keys: _*).agg(windows(Seq(window -> window), col("miner"), col("cnt")).as("m"))
      .select(keys :+ inline(col("m")): _*)
      .drop("series")
  }
}
