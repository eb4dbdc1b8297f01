package repro.core

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop}
import repro.{PropertyCheck, SparkSpec}

/** The Spark metric kernel vs the local reference implementation, on
  * hand-built window-count frames.
  */
class MetricsSpec extends SparkSpec with PropertyCheck {

  private def countsDf(windows: Map[Long, Seq[Long]]): DataFrame = {
    import spark.implicits._
    windows.toSeq
      .flatMap { case (w, xs) => xs.zipWithIndex.map { case (x, i) => (w, f"m$i%03d", x) } }
      .toDF("window_id", "miner", "cnt")
  }

  private def collectMetric(df: DataFrame, col: String): Map[Long, Double] =
    df.collect().map(r => r.getLong(r.fieldIndex("window_id")) ->
      (r.get(r.fieldIndex(col)) match {
        case d: Double => d
        case i: Int    => i.toDouble
        case l: Long   => l.toDouble
        case x         => fail(s"unexpected type $x")
      })).toMap

  /** One metric column of `Metrics.all` over the given windows. */
  private def metric(windows: Map[Long, Seq[Long]], col: String): Map[Long, Double] =
    collectMetric(Metrics.all(countsDf(windows)), col)

  private val sample = Map(
    1L -> Seq(5L, 5L, 5L, 5L),
    2L -> Seq(1L, 3L),
    3L -> Seq(60L, 20L, 20L),
    4L -> Seq(1L, 1L, 2L, 7L, 19L),
    5L -> Seq(42L),
  )

  test("gini matches local reference on hand-built windows") {
    val got = metric(sample, "gini")
    for ((w, xs) <- sample)
      assert(got(w) === LocalMetrics.gini(xs), s"window $w")
  }

  test("entropy matches local reference on hand-built windows") {
    val got = metric(sample, "entropy")
    for ((w, xs) <- sample)
      assert(math.abs(got(w) - LocalMetrics.entropy(xs)) < 1e-9, s"window $w")
  }

  test("nakamoto matches local reference on hand-built windows") {
    val got = metric(sample, "nakamoto")
    for ((w, xs) <- sample)
      assert(got(w).toInt === LocalMetrics.nakamoto(xs), s"window $w")
  }

  test("gini of even split is 0 and of [1,3] is 0.25 (spot values)") {
    val got = metric(sample, "gini")
    assert(got(1L) === 0.0)
    assert(got(2L) === 0.25)
    assert(got(5L) === 0.0)
  }

  test("entropy of a single-producer window is +0.0 (not -0.0)") {
    val got = metric(sample, "entropy")
    assert(got(5L) === 0.0)
    assert(1.0 / got(5L) === Double.PositiveInfinity)
  }

  test("nakamoto spot values: majority=1, even-2=2") {
    val got = metric(sample, "nakamoto")
    assert(got(3L) === 1.0)
    assert(got(5L) === 1.0)
  }

  test("metrics are independent across windows (adding a window changes nothing)") {
    val base  = Map(1L -> Seq(3L, 9L, 1L))
    val extra = base + (2L -> Seq(100L, 1L))
    for (c <- Seq("gini", "entropy", "nakamoto"))
      assert(metric(base, c)(1L) === metric(extra, c)(1L), c)
  }

  test("all() returns every metric plus population stats, one row per window") {
    val all = Metrics.all(countsDf(sample))
    assert(all.count() === sample.size)
    assert(all.columns.toSet ===
      Set("window_id", "producers", "attributions", "gini", "entropy", "nakamoto"))
    val r = all.where(all("window_id") === 4L).collect().head
    assert(r.getLong(r.fieldIndex("producers")) === 5L)
    assert(r.getLong(r.fieldIndex("attributions")) === 30L)
  }

  test("property: spark metrics equal local metrics on random windows") {
    val window = Gen.nonEmptyListOf(Gen.chooseNum(1L, 200L)).map(_.take(20))
    val frame  = Gen.choose(1, 6).flatMap(k => Gen.listOfN(k, window))
      .map(_.zipWithIndex.map { case (xs, w) => w.toLong -> xs }.toMap)
    checkProp(Prop.forAll(frame) { windows =>
      val rows = Metrics.all(countsDf(windows)).collect()
        .map(r => r.getLong(r.fieldIndex("window_id")) -> r).toMap
      rows.keySet == windows.keySet && windows.forall { case (w, xs) =>
        val r = rows(w)
        r.getLong(r.fieldIndex("producers")) == xs.size &&
          r.getLong(r.fieldIndex("attributions")) == xs.sum &&
          r.getDouble(r.fieldIndex("gini")) == LocalMetrics.gini(xs) &&
          math.abs(r.getDouble(r.fieldIndex("entropy")) - LocalMetrics.entropy(xs)) < 1e-9 &&
          r.getInt(r.fieldIndex("nakamoto")) == LocalMetrics.nakamoto(xs)
      }
    }, minSuccessful = 20)
  }

  test("property: metrics are bit-identical when each producer's count is split into partial rows") {
    import spark.implicits._
    /** `x` as 1–4 positive parts. */
    def parts(x: Long): Gen[List[Long]] =
      if (x == 1L) Gen.const(List(1L))
      else Gen.choose(0, math.min(3L, x - 1L).toInt).flatMap(k => Gen.pick(k, 1L until x)).map { cuts =>
        val bounds = 0L +: cuts.sorted.toList :+ x
        bounds.zip(bounds.tail).map { case (a, b) => b - a }
      }
    val window = Gen.nonEmptyListOf(Gen.chooseNum(1L, 200L)).map(_.take(20))
    val split = for {
      windows <- Gen.choose(1, 6).flatMap(k => Gen.listOfN(k, window))
      rows     = for ((xs, w) <- windows.zipWithIndex; (x, i) <- xs.zipWithIndex) yield (w.toLong, f"m$i%03d", x)
      partial <- Gen.sequence[List[List[(Long, String, Long)]], List[(Long, String, Long)]](
                   rows.map { case (w, m, x) => parts(x).map(_.map(p => (w, m, p))) })
      seed    <- Gen.long
    } yield (rows, new scala.util.Random(seed).shuffle(partial.flatten))
    def measured(rows: Seq[(Long, String, Long)]) =
      Metrics.all(rows.toDF("window_id", "miner", "cnt").repartition(3)).collect()
        .map(_.toSeq.map { case d: Double => java.lang.Double.doubleToRawLongBits(d); case v => v })
        .sortBy(_.head.asInstanceOf[Long]).toSeq
    checkProp(Prop.forAll(split) { case (whole, partial) => measured(whole) == measured(partial) }, minSuccessful = 20)
  }
}
