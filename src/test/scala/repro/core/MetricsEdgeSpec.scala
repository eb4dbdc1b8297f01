package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SparkSpec

/** Edge-case behaviour of the metric kernel: ties, huge windows, the 51%
  * boundary, many windows at once.
  */
class MetricsEdgeSpec extends SparkSpec {

  private def countsDf(rows: Seq[(Long, String, Long)]): DataFrame = {
    import spark.implicits._
    rows.toDF("window_id", "miner", "cnt")
  }

  /** The single row of `Metrics.all` over a one-window frame. */
  private def only(rows: Seq[(Long, String, Long)]): Row = Metrics.all(countsDf(rows)).first()

  private def gini(r: Row): Double    = r.getDouble(r.fieldIndex("gini"))
  private def entropy(r: Row): Double = r.getDouble(r.fieldIndex("entropy"))
  private def nakamoto(r: Row): Int   = r.getInt(r.fieldIndex("nakamoto"))

  test("Metrics.all has a fixed schema, orders windows by window_id and measures no rows as no rows") {
    val schema = StructType(Seq("window_id" -> LongType, "producers" -> LongType, "attributions" -> LongType,
      "gini" -> DoubleType, "entropy" -> DoubleType, "nakamoto" -> IntegerType).map { case (c, t) => StructField(c, t) })
    val rows = for (w <- Seq(5L, -2L, 40L, 0L, 7L); i <- 0 until 3) yield (w, s"m$i", w.abs + i + 1L)
    val all = Metrics.all(countsDf(rows).repartition(3))
    assert(all.schema === schema)
    assert(all.collect().map(_.getLong(0)).toSeq === Seq(-2L, 0L, 5L, 7L, 40L))
    val empty = Metrics.all(countsDf(Nil))
    assert(empty.schema === schema && empty.collect().isEmpty)
  }

  test("gini with all-tied counts is exactly 0 regardless of tie order") {
    assert(gini(only((1 to 50).map(i => (0L, s"m$i", 7L)))) === 0.0)
  }

  test("nakamoto tie-break at the threshold row is deterministic") {
    assert(nakamoto(only(Seq((0L, "b", 50L), (0L, "a", 50L)))) === 2)
    assert(nakamoto(only(Seq((0L, "b", 51L), (0L, "a", 49L)))) === 1)
  }

  test("a 10,000-producer window computes correct gini and entropy") {
    val xs = (1L to 10000L).map(i => (0L, f"m$i%05d", i))
    val r  = only(xs)
    val g  = gini(r)
    assert(g === LocalMetrics.gini(xs.map(_._3)))
    assert(math.abs(entropy(r) - LocalMetrics.entropy(xs.map(_._3))) < 1e-9)
    // closed form: Gini of counts 1..n is (n−1)/(3n)
    assert(math.abs(g - (10000.0 - 1) / (3.0 * 10000.0)) < 1e-9)
  }

  test("500 windows in one frame all get independent metrics") {
    val rows = for (w <- 0L until 500L; i <- 0 until 4)
      yield (w, s"m$i", (w % 7) + i + 1L)
    val all = Metrics.all(countsDf(rows)).cache()
    assert(all.count() === 500L)
    // spot-check one window against the local reference
    val w13 = rows.filter(_._1 == 13L).map(_._3)
    val r = all.where(col("window_id") === 13L).first()
    assert(gini(r) === LocalMetrics.gini(w13))
    assert(nakamoto(r) === LocalMetrics.nakamoto(w13))
  }

  test("counts of 1 for every producer: gini 0, entropy log2 n, nakamoto 51% of n") {
    val r = only((1 to 200).map(i => (0L, f"m$i%03d", 1L)))
    assert(gini(r) === 0.0)
    assert(math.abs(entropy(r) - math.log(200) / math.log(2)) < 1e-9)
    assert(nakamoto(r) === 102) // ceil(200*0.51)
  }

  test("extremely skewed window: gini near 1, entropy near 0, nakamoto 1") {
    val r = only(Seq((0L, "whale", 1000000L)) ++ (1 to 9).map(i => (0L, s"m$i", 1L)))
    assert(gini(r) > 0.85)
    assert(entropy(r) < 0.01)
    assert(nakamoto(r) === 1)
  }

  test("gini denominator never overflows at ETH monthly scale") {
    // 180,000 blocks over 400 producers — counts in the hundreds of thousands
    val xs = (1 to 400).map(i => (0L, f"m$i%03d", 450L * i))
    assert(gini(only(xs)) === LocalMetrics.gini(xs.map(_._3)))
  }

  test("a producer count that is zero, negative or null after merging fails instead of being measured") {
    import spark.implicits._
    val bad = Seq(
      "zero count"   -> Seq((0L, "a", Some(3L)), (0L, "b", Some(0L))),
      "zero total"   -> Seq((0L, "a", Some(0L))),
      "parts sum to zero" -> Seq((0L, "a", Some(3L)), (0L, "b", Some(2L)), (0L, "b", Some(-2L))),
      "null count"   -> Seq((0L, "a", Some(3L)), (0L, "b", None)),
    )
    for ((what, rows) <- bad) assertFails(rows.toDF("window_id", "miner", "cnt"), "block counts must be positive", what)
  }

  test("a null producer or window id fails instead of being measured") {
    import spark.implicits._
    assertFails(Seq[(Long, String, Long)]((1L, "a", 3L), (1L, null, 2L)).toDF("window_id", "miner", "cnt"),
      "a producer (miner) must not be null", "null miner")
    assertFails(Seq[(Option[Long], String, Long)]((Some(1L), "a", 3L), (None, "b", 2L)).toDF("window_id", "miner", "cnt"),
      "a window id must not be null", "null window id")
  }

  test("a counts frame with a column besides window_id, miner and cnt fails instead of being measured as one series") {
    import spark.implicits._
    val tagged = Seq((1L, "a", 3L, "day"), (1L, "a", 2L, "week"), (1L, "b", 1L, "week"))
      .toDF("window_id", "miner", "cnt", "granularity")
    assertFails(tagged, "a window-counts frame must have exactly the columns window_id, miner and cnt", "granularity")
  }

  /** Asserts that `Metrics.all(counts)` fails with an error whose message (or a cause's) contains `message`. */
  private def assertFails(counts: DataFrame, message: String, what: String): Unit = {
    val e = intercept[Exception](Metrics.all(counts).collect())
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).flatMap(t => Option(t.getMessage))
    assert(messages.exists(_.contains(message)), s"$what: $e")
  }
}
