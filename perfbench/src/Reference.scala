package perfbench

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.chain.ChainSpec
import repro.core.LocalMetrics

/** One window's population and metrics. */
final case class WindowMetrics(
    id: Long, producers: Long, attributions: Long, gini: Double, entropy: Double, nakamoto: Int)

/** One chain's attribution rows in driver memory, ordered by block index.
  * Miners are numbered; `minerNames(k)` is miner k's name.
  */
final class LocalChain(
    val spec: ChainSpec,
    val idx: Array[Long],
    val block: Array[Long],
    val day: Array[Int],
    val week: Array[Int],
    val month: Array[Int],
    val miner: Array[Int],
    val minerNames: Array[String],
) {
  def rows: Int = idx.length

  /** Metrics of the window made of rows `[from, until)`. */
  def measure(id: Long, from: Int, until: Int): WindowMetrics = {
    val cnt = new Array[Long](minerNames.length)
    var r = from
    while (r < until) { cnt(miner(r)) += 1L; r += 1 }
    val xs = cnt.filter(_ > 0L).toSeq
    WindowMetrics(id, xs.size.toLong, xs.sum, LocalMetrics.gini(xs), LocalMetrics.entropy(xs),
      LocalMetrics.nakamoto(xs))
  }

  /** Fixed windows over a calendar column (`day`, `week` or `month`): rows
    * are ordered by block index, so each window is one contiguous run of rows.
    */
  def fixed(column: String): Vector[WindowMetrics] = {
    val key = Map("day" -> day, "week" -> week, "month" -> month)(column)
    val out = Vector.newBuilder[WindowMetrics]
    var from = 0
    while (from < rows) {
      var until = from + 1
      while (until < rows && key(until) == key(from)) until += 1
      out += measure(key(from).toLong, from, until)
      from = until
    }
    out.result()
  }

  /** First row whose block index is at least `i`. */
  private def firstRowAt(i: Long): Int = {
    var lo = 0
    var hi = rows
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (idx(mid) < i) lo = mid + 1 else hi = mid }
    lo
  }

  /** Number of sliding windows of `n` blocks with step `m` (paper Eq. 5). */
  def slidingCount(n: Long, m: Long): Long =
    if (spec.blockCount < n) 0L else (spec.blockCount - n) / m + 1L

  /** Sliding windows: window j covers block indices `[j·m, j·m + n)`. */
  def sliding(n: Long, m: Long): Vector[WindowMetrics] =
    Vector.tabulate(slidingCount(n, m).toInt) { j =>
      measure(j.toLong, firstRowAt(j * m), firstRowAt(j * m + n))
    }

  /** Window sizes of the sliding tables, with the paper's step `M = N/2`. */
  def slidingSizes: Seq[(String, Long, Long)] =
    Seq(("day", spec.slidingDay), ("week", spec.slidingWeek), ("month", spec.slidingMonth))
      .map { case (label, n) => (label, n, math.max(1L, n / 2)) }
}

/** A single-threaded reference for every report table the workloads emit:
  * plain-Scala windowing over collected attribution rows, with the metrics
  * of [[repro.core.LocalMetrics]]. Cells are rendered like
  * [[repro.util.Render]].
  */
object Reference {

  /** Collect a chain's attribution rows. Each partition packs its rows into
    * arrays, with miners numbered per partition, before they are shipped.
    */
  def collect(spec: ChainSpec, attrib: DataFrame): LocalChain = {
    val parts = attrib.select("idx", "block_number", "day", "week", "month", "miner").rdd
      .mapPartitions { it =>
        val rows = it.toArray
        val names = mutable.LinkedHashMap.empty[String, Int]
        val code = rows.map(r => names.getOrElseUpdate(r.getString(5), names.size))
        Iterator((rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getInt(2)), rows.map(_.getInt(3)),
          rows.map(_.getInt(4)), code, names.keys.toArray))
      }
      .collect()
    val ids = mutable.LinkedHashMap.empty[String, Int]
    val miner = parts.flatMap { p => val global = p._7.map(n => ids.getOrElseUpdate(n, ids.size)); p._6.map(global) }
    val idx = parts.flatMap(_._1)
    val order = Array.range(0, idx.length)
    if (!idx.indices.drop(1).forall(k => idx(k - 1) <= idx(k))) {
      val sorted = order.sortBy(k => idx(k))
      System.arraycopy(sorted, 0, order, 0, sorted.length)
    }
    def perm[A: scala.reflect.ClassTag](a: Array[A]): Array[A] = order.map(a(_))
    new LocalChain(spec, perm(idx), perm(parts.flatMap(_._2)), perm(parts.flatMap(_._3)),
      perm(parts.flatMap(_._4)), perm(parts.flatMap(_._5)), perm(miner), ids.keys.toArray)
  }

  def fmt(d: Double): String = f"$d%.4f"

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  private def stddev(xs: Seq[Double]): String =
    if (xs.size < 2) "∅"
    else { val mu = mean(xs); fmt(math.sqrt(xs.map(x => (x - mu) * (x - mu)).sum / (xs.size - 1))) }

  private val metricOf: Seq[(String, WindowMetrics => Double)] =
    Seq(("gini", _.gini), ("entropy", _.entropy), ("nakamoto", _.nakamoto.toDouble))

  /** T1 — dataset summary per chain. */
  def t1Dataset(chains: Seq[LocalChain]): Rendered = Rendered(
    Vector("chain", "blocks", "attributions", "producers", "first_block", "last_block", "days"),
    chains.toVector.map { c =>
      Vector(c.spec.name, c.block.distinct.length.toString, c.rows.toString,
        c.miner.distinct.length.toString, c.block.min.toString, c.block.max.toString,
        c.day.distinct.length.toString)
    })

  /** T2 / T3 — fixed-window metric summaries. */
  def fixedSummary(c: LocalChain): Rendered = Rendered(
    Vector("chain", "granularity", "metric", "mean", "stddev", "min", "max", "windows"),
    for {
      g <- Vector("day", "week", "month")
      ws = c.fixed(g)
      (name, f) <- metricOf
    } yield {
      val xs = ws.map(f)
      Vector(c.spec.name, g, name, fmt(mean(xs)), stddev(xs), fmt(xs.min), fmt(xs.max), xs.size.toString)
    })

  /** T4 — sliding-window summary. */
  def slidingSummary(c: LocalChain): Rendered = Rendered(
    Vector("chain", "window", "n_blocks", "step", "expected_L", "windows", "mean_gini",
      "mean_entropy", "mean_nakamoto"),
    c.slidingSizes.toVector.map { case (label, n, m) =>
      val ws = c.sliding(n, m)
      Vector(c.spec.name, label, n.toString, m.toString, c.slidingCount(n, m).toString,
        ws.size.toString) ++ metricOf.map { case (_, f) => fmt(mean(ws.map(f))) }
    })

  /** T6 — the day-14 case: days 12–16 plus the all-year daily mean. */
  def day14Case(c: LocalChain): Rendered = {
    val blocks = c.day.indices.groupBy(c.day(_)).map { case (d, rs) => d -> rs.map(c.block(_)).distinct.size.toLong }
    val daily = c.fixed("day")
    def row(label: String, b: Long, w: WindowMetrics): Vector[String] =
      Vector(label, b.toString, w.producers.toString, w.attributions.toString, fmt(w.gini),
        fmt(w.entropy), w.nakamoto.toString)
    val detail = daily.filter(w => w.id >= 12 && w.id <= 16).map(w => row(s"day_${w.id}", blocks(w.id.toInt), w))
    def avg(xs: Seq[Double]): Double = xs.sum / xs.size
    val meanRow = Vector("daily_mean",
      avg(daily.map(w => blocks(w.id.toInt).toDouble)).toLong.toString,
      avg(daily.map(_.producers.toDouble)).toLong.toString,
      avg(daily.map(_.attributions.toDouble)).toLong.toString,
      fmt(avg(daily.map(_.gini))),
      fmt(avg(daily.map(_.entropy))),
      avg(daily.map(_.nakamoto.toDouble)).toLong.toString)
    Rendered(Vector("label", "blocks", "producers", "attributions", "gini", "entropy", "nakamoto"),
      detail :+ meanRow)
  }
}
