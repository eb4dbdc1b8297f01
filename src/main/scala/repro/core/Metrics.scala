package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** The paper's three decentralization metrics, computed per window by one
  * kernel over the window's per-producer block counts, sorted once.
  *
  * Numeric notes:
  *   - Gini (Eq. 1) uses the rank formula `G = (2·Σ rank·x − (n+1)·Σx) / (n·Σx)`
  *     over ascending counts and stays in `Long` arithmetic until a single
  *     final division, so it is bit-identical to any other engine using the
  *     same formula (the DuckDB oracle compares it exactly).
  *   - Entropy (Eq. 2–3) uses `p·log₂(1/p)` (not `−p·log₂ p`) so a
  *     single-producer window yields +0.0 rather than −0.0.
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

  // Not `private`: Spark's generated encoder code cannot reach a private class.
  private[core] final case class WindowMetrics(
      producers: Long, attributions: Long, gini: Double, entropy: Double, nakamoto: Int)

  /** A window's partial counts `(miner, cnt)`, summed per producer, then measured. */
  private val kernel = udf { (partials: Seq[Row]) =>
    val perProducer = mutable.HashMap.empty[String, Long]
    for (p <- partials) {
      require(!p.isNullAt(1), CountsMustBePositive)
      perProducer(p.getString(0)) = perProducer.getOrElse(p.getString(0), 0L) + p.getLong(1)
    }
    val xs = perProducer.valuesIterator.toArray
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
    WindowMetrics(n, tot, gini, entropy, k)
  }

  /** All three metrics plus window population stats from a window-counts frame
    * `(keys…, window_id: Long, miner: String, cnt: Long)`, one row per window:
    * `(keys…, window_id, producers, attributions, gini, entropy, nakamoto)`.
    *
    * A producer may have several rows in a window (partial counts, e.g. one per pane); the
    * kernel sums them, so the window counts and the metrics cost one shuffle. A summed count
    * that is null or not positive fails the query, as in [[LocalMetrics]].
    */
  def all(counts: DataFrame): DataFrame = {
    val by = (keys(counts) :+ "window_id").map(col)
    counts.groupBy(by: _*)
      .agg(kernel(collect_list(struct(col("miner"), col("cnt").cast(LongType).as("cnt")))).as("m"))
      .select(by :+ col("m.*"): _*)
  }
}
