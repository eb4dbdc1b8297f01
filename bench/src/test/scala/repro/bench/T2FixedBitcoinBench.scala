package repro.bench

import org.apache.spark.sql.functions._
import repro.TestPipeline
import repro.core.{FixedWindows, Tables}
import repro.util.Render

/** T2 — Bitcoin fixed-window metric summaries (paper Figs. 1–3):
  * daily Gini ~0.45–0.60 (early dips toward 0.25–0.34), monthly Gini the
  * highest (→ ~0.90 early); daily entropy ~3.5–4.0 with >5.5 extremes;
  * Nakamoto stable at 4 mid-year, daily spikes > 35 in the first 50 days.
  */
class T2FixedBitcoinBench extends BenchSpec {

  private lazy val t2 = Tables.fixedSummary("bitcoin", btcAttrib).cache()

  private def stat(gran: String, metric: String, col: String): Double = {
    val r = t2.where(expr(s"granularity = '$gran' AND metric = '$metric'")).first()
    r.getDouble(r.fieldIndex(col))
  }

  test("T2: report table") {
    BenchData.report("T2_fixed_bitcoin", Render.table(t2))
    assert(t2.count() === 9L)
  }

  test("T2: Gini rises with granularity (Fig. 1 ordering)") {
    assert(stat("day", "gini", "mean") < stat("week", "gini", "mean"))
    assert(stat("week", "gini", "mean") < stat("month", "gini", "mean"))
  }

  test("T2: daily Gini band 0.45-0.60 with low extremes (Fig. 1)") {
    val m = stat("day", "gini", "mean")
    assert(m > 0.40 && m < 0.65, s"daily mean gini $m")
    assert(stat("day", "gini", "min") < 0.45, "early dips (paper ~0.25-0.34)")
  }

  test("T2: monthly Gini reaches ~0.8-0.9 early in the year (Fig. 1)") {
    val monthly = TestPipeline.fixed(btcAttrib, FixedWindows.Monthly)
    val firstQuarter = monthly.where(col("window_id") <= 3)
      .agg(max("gini")).first().getDouble(0)
    assert(firstQuarter > 0.78, s"Q1 monthly gini max $firstQuarter (paper ≈ 0.90)")
  }

  test("T2: daily entropy 3.5-4.0 band with extremes > 5.5 (Fig. 2)") {
    val m = stat("day", "entropy", "mean")
    assert(m > 3.4 && m < 4.1, s"daily mean entropy $m")
    assert(stat("day", "entropy", "max") > 5.5)
  }

  test("T2: Nakamoto stable at 4 mid-year with early spikes > 35 (Fig. 3)") {
    val daily = TestPipeline.fixed(btcAttrib, FixedWindows.Daily).cache()
    val midMode = daily.where(col("window_id").between(100, 260))
      .groupBy("nakamoto").count().orderBy(desc("count")).first().getInt(0)
    assert(midMode === 4)
    assert(stat("day", "nakamoto", "max") > 35.0)
  }
}
