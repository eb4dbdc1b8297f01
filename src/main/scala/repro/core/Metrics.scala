package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Column, DataFrame, Encoders, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructType}
import org.roaringbitmap.RoaringBitmap

/** The paper's three decentralization metrics, computed per window by one
  * kernel over the window's per-producer block counts, sorted once, after
  * the driver merges the counts that each Spark task folds ([[windows]]).
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
  private val AllColumns = "window_id BIGINT, producers BIGINT, attributions BIGINT, gini DOUBLE, entropy DOUBLE, nakamoto INT"

  /** How a series places a row in windows from the row's position `p`: windows `first(p)` to
    * `last(p)`, none when first > last. A [[Point]]'s one window is `p` (a calendar column or a
    * window id); a [[Band]] is the `l` sliding windows of `n` positions advanced by `m` (Eq. 5).
    */
  private[core] sealed abstract class Rule(val first: Long => Long, val last: Long => Long) extends Serializable
  private[core] case object Point extends Rule(p => p, p => p)
  private[core] final case class Band(n: Long, m: Long, l: Long)
      extends Rule(SlidingWindows.first(_, n, m), SlidingWindows.last(_, m, l))

  /** Window `window_id` of a series, measured; `blocks` is its number of distinct blocks,
    * `blockRange` their least and greatest (none without a block), `attributions` its summed
    * producer counts.
    */
  private[core] final case class Measured(window_id: Long, blocks: Long, producers: Long, attributions: Long,
      gini: Double, entropy: Double, nakamoto: Int, blockRange: Option[(Long, Long)]) {
    /** The metric values, as [[Metrics.names]]. */
    def metrics: Seq[Double] = Seq(gini, entropy, nakamoto.toDouble)
  }

  private final class Count(var n: Long) extends Serializable

  /** One window's contents: producer → count, and high 32 bits of a block number → the low 32
    * bits of its blocks, so (high, low) identifies every `Long`. The bitmaps are allocated with
    * the first non-null block, so windows counted without blocks carry and ship none.
    * Blocks are compressed bitmaps (Chambi et al., "Better bitmap performance with Roaring
    * bitmaps", SPE 2016): 32-bit bitmaps under a hash map, as a `Roaring64Bitmap` walks a radix
    * tree on every insert, which made a distinct-block count over 2.2 M rows about a fifth
    * slower, and `Roaring64NavigableMap` fails in its cardinality after OR-merging bitmaps that
    * hold negative and positive numbers.
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

    /** The least and greatest block: a bitmap orders its low 32 bits unsigned, as a `Long` orders them. */
    def blockRange: Option[(Long, Long)] = Option(blocks).filter(_.nonEmpty).map { bs =>
      val (lo, hi) = (bs.keys.min, bs.keys.max)
      ((lo << 32) | (bs(lo).first & 0xFFFFFFFFL), (hi << 32) | (bs(hi).last & 0xFFFFFFFFL))
    }
  }

  /** Per frame and series (frame-major), window id → its contents. */
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

  /** Counts row `r`, read as `(frame, miner, weight, block, positions…)`, `weight` times for its
    * producer and its block once in each window its series' rules give its position.
    */
  private def reduce(b: Buffer, positions: Array[Int], rules: Array[Rule])(r: Row): Unit = {
    val miner = r.getString(1)
    require(miner != null, NullProducer)
    require(!r.isNullAt(2), CountsMustBePositive)
    val weight = r.getLong(2)
    val frame  = r.getInt(0) * rules.length
    var s = 0
    while (s < rules.length) {
      require(!r.isNullAt(4 + positions(s)), NullWindow)
      val p = r.getLong(4 + positions(s))
      var w = rules(s).first(p)
      val last = rules(s).last(p)
      while (w <= last) {
        val window = b(frame + s).getOrElseUpdate(w, new Contents)
        window.producers.getOrElseUpdate(miner, new Count(0L)).n += weight
        if (!r.isNullAt(3)) window.add(r.getLong(3))
        w += 1
      }
      s += 1
    }
  }

  /** Adds `b2`'s counts to `b1`'s and ORs its blocks into them. */
  private def merge(b1: Buffer, b2: Buffer): Buffer = {
    for (s <- b1.indices; (w, window) <- b2(s)) b1(s).get(w).fold(b1(s)(w) = window)(_.addAll(window))
    b1
  }

  /** Every window of one series, measured, in ascending window order. */
  private def finish(series: mutable.LongMap[Contents]): Seq[Measured] =
    for (w <- series.keys.toSeq.sorted) yield {
      val window = series(w)
      val xs = window.producers.valuesIterator.map(_.n).toArray
      val (gini, entropy, nakamoto) = measure(xs)
      Measured(w, window.blockCount, xs.length.toLong, xs.sum, gini, entropy, nakamoto, window.blockRange)
    }

  /** The measured windows of each of `frames`, per series in `series` order, windows ascending.
    * A row counts `weight` times for `miner`, and its `block` once, in every window of each series:
    * the windows its [[Rule]] gives the row's value of the series' position column, each distinct
    * column read once. `blocks` counts a window's distinct non-null blocks, as SQL's
    * `COUNT(DISTINCT)`: a null `block` (a null literal where blocks are not wanted) counts none.
    * A null producer, weight or position fails with a named error, as does a producer whose
    * count is not positive.
    *
    * The frames are unioned into one Spark job, one task per partition. Each task folds its
    * rows into one buffer of per-window contents and returns it, Java-serialized, as its one
    * result; the driver merges the buffers and measures each window. So the partial aggregation
    * runs in the tasks and the final merge at the client (Yu, Gunda & Isard, SOSP 2009), and
    * one group needs no shuffle.
    */
  private[core] def windows(frames: Seq[DataFrame], series: Seq[(Column, Rule)], miner: Column, weight: Column,
                            block: Column): Seq[Seq[Seq[Measured]]] = {
    val pos = series.map(_._1).distinct
    val positions = series.map(s => pos.indexOf(s._1)).toArray
    val rules = series.map(_._2).toArray
    val size = frames.size * rules.length
    val rows = frames.zipWithIndex.map { case (f, i) =>
      f.select(lit(i) +: miner +: weight.cast(LongType) +: block.cast(LongType) +: pos.map(_.cast(LongType)): _*)
    }.reduce(_ union _)
    val buffers = rows.mapPartitions { it =>
      val b: Buffer = Array.fill(size)(mutable.LongMap.empty[Contents])
      it.foreach(reduce(b, positions, rules))
      Iterator.single(b)
    }(Encoders.javaSerialization[Buffer]).collect()
    val merged = buffers.foldLeft(Array.fill(size)(mutable.LongMap.empty[Contents]))(merge)
    merged.toSeq.map(finish).grouped(rules.length).toSeq
  }

  /** All three metrics plus window population stats from the window-counts frame of one series
    * `(window_id: Long, miner: String, cnt: Long)`, one row per window in ascending `window_id`
    * order: `(window_id, producers, attributions, gini, entropy, nakamoto)`, every column nullable.
    * The windows are measured by [[windows]] when it is called, and returned as a local frame.
    *
    * A producer may have several rows in a window (partial counts); they add up. A summed
    * count that is null or not positive fails the query, as in [[LocalMetrics]]; so does a
    * null producer or window id. A frame with any other column fails with a named error rather
    * than measuring several series as one.
    */
  def all(counts: DataFrame): DataFrame = {
    require(counts.columns.sorted.sameElements(Array("cnt", "miner", "window_id")),
      s"$OneSeries, not ${counts.columns.mkString(", ")}")
    val Seq(Seq(ws)) = windows(Seq(counts), Seq(col("window_id") -> Point), col("miner"), col("cnt"), lit(null))
    counts.sparkSession.createDataFrame(ws.map(w => Row(w.window_id, w.producers, w.attributions, w.gini, w.entropy,
      w.nakamoto)).asJava, StructType.fromDDL(AllColumns))
  }
}
