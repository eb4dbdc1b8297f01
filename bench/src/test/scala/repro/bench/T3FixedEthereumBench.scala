package repro.bench

import org.apache.spark.sql.functions._
import repro.TestPipeline
import repro.core.{FixedWindows, Pipeline, Tables}
import repro.util.Render

/** T3 — Ethereum fixed-window metric summaries (paper Figs. 4–6):
  * Gini higher and more stable than Bitcoin's, entropy ~3.3–3.5,
  * Nakamoto fluctuating between 2 and 3, no abnormal values all year.
  */
class T3FixedEthereumBench extends BenchSpec {

  private lazy val t3 = Tables.fixedSummary("ethereum", ethAttrib).cache()

  private def stat(gran: String, metric: String, col: String): Double = {
    val r = t3.where(expr(s"granularity = '$gran' AND metric = '$metric'")).first()
    r.getDouble(r.fieldIndex(col))
  }

  test("T3: report table") {
    BenchData.report("T3_fixed_ethereum", Render.table(t3))
    assert(t3.count() === 9L)
  }

  test("T3: Gini rises with granularity and is high (Fig. 4)") {
    val (d, w, m) = (stat("day", "gini", "mean"), stat("week", "gini", "mean"),
      stat("month", "gini", "mean"))
    assert(d < w && w < m)
    assert(d > 0.75, s"daily mean gini $d (paper ≈ 0.84)")
  }

  test("T3: entropy in the 3.3-3.5 band (Fig. 5)") {
    val m = stat("day", "entropy", "mean")
    assert(m > 3.1 && m < 3.6, s"daily mean entropy $m")
    // stability: tight dispersion
    assert(stat("day", "entropy", "stddev") < 0.15)
  }

  test("T3: Nakamoto fluctuates between 2 and 3 only (Fig. 6)") {
    val daily = TestPipeline.fixed(ethAttrib, FixedWindows.Daily)
    val vals = daily.select("nakamoto").distinct().collect().map(_.getInt(0)).toSet
    assert(vals === Set(2, 3), s"got $vals")
  }

  test("T3: no abnormal values during the year (paper §II-C-2d)") {
    val daily = TestPipeline.fixed(ethAttrib, FixedWindows.Daily)
    import repro.core.Anomaly
    assert(Anomaly.countExtremes(daily, "entropy", 4.0) === 0L)
    assert(Anomaly.countExtremes(daily, "gini", 4.0) === 0L)
  }

  test("T3: Ethereum metrics are more stable than Bitcoin's (paper conclusion)") {
    val btcDailyStd = Pipeline.summary(TestPipeline.fixed(btcAttrib, FixedWindows.Daily))
      .where(col("metric") === "entropy").first().getDouble(2)
    assert(stat("day", "entropy", "stddev") < btcDailyStd)
  }
}
