package repro.bench

import org.apache.spark.sql.functions._
import repro.TestPipeline
import repro.core.{FixedWindows, Tables}
import repro.util.Render

/** T6 — the day-14 Bitcoin case study (paper §II-C-1d): two multi-coinbase
  * blocks with >80 and >90 producers turn a 148-block day into an extreme:
  * daily Gini 0.34 and daily entropy 6.2 in the paper.
  */
class T6Day14CaseBench extends BenchSpec {

  private lazy val t6 = Tables.day14Case(btcAttrib).cache()

  test("T6: report table") {
    BenchData.report("T6_day14_case", Render.table(t6))
  }

  test("T6: day 14 has ~148 blocks but a huge producer set") {
    val r = t6.where(col("label") === "day_14").first()
    val blocks    = r.getLong(r.fieldIndex("blocks"))
    val producers = r.getLong(r.fieldIndex("producers"))
    assert(blocks >= 147L && blocks <= 150L, s"blocks $blocks (paper: 148)")
    assert(producers > 190L, s"producers $producers (85+95 one-offs + pools)")
  }

  test("T6: day-14 Gini collapses below 0.45 (paper: 0.34)") {
    val r = t6.where(col("label") === "day_14").first()
    val g = r.getDouble(r.fieldIndex("gini"))
    assert(g < 0.45, s"day-14 gini $g")
    val mean = t6.where(col("label") === "daily_mean").first()
    assert(g < mean.getDouble(mean.fieldIndex("gini")) - 0.1)
  }

  test("T6: day-14 entropy explodes above 5.5 (paper: 6.2)") {
    val r = t6.where(col("label") === "day_14").first()
    val e = r.getDouble(r.fieldIndex("entropy"))
    assert(e > 5.5 && e < 7.5, s"day-14 entropy $e")
  }

  test("T6: the two anomalous blocks carry >80 and >90 producers") {
    val perBlock = btcAttrib.where(col("day") === 14)
      .groupBy("block_number").count()
      .where(col("count") > 1)
      .collect().map(_.getLong(1)).sorted
    assert(perBlock.length === 2)
    assert(perBlock(0) > 80L && perBlock(1) > 90L)
  }

  test("T6: neighbouring days stay normal") {
    for (d <- Seq("day_12", "day_13", "day_15", "day_16")) {
      val r = t6.where(col("label") === d).first()
      assert(r.getDouble(r.fieldIndex("entropy")) < 5.0, d)
      assert(r.getLong(r.fieldIndex("producers")) < 80L, d)
    }
  }

  test("T6: weekly fixed window dampens the anomaly (motivation for sliding windows)") {
    val weekly = TestPipeline.fixed(btcAttrib, FixedWindows.Weekly)
    val w2 = weekly.where(col("window_id") === 2L).first() // days 8-14
    val daily14 = t6.where(col("label") === "day_14").first()
    assert(w2.getDouble(w2.fieldIndex("entropy")) <
      daily14.getDouble(daily14.fieldIndex("entropy")),
      "aggregating a week hides the day-14 spike")
  }
}
