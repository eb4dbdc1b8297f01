package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams}

/** Calendar bucketing of the attribution table, checked against hand-counted
  * expectations and the DuckDB oracle.
  */
class FixedWindowsSpec extends SparkSpec {

  private lazy val spec   = ChainParams.btc2019.scaled(0.02) // 1,085 blocks over 365 days
  private lazy val attrib: DataFrame =
    BlockGenerator.attributions(spark, spec, seed = 7L).cache()

  test("granularity catalogue covers day, week, month") {
    assert(FixedWindows.all.map(_.name) === Seq("day", "week", "month"))
  }

  test("daily counts sum to the attribution total") {
    val daily = FixedWindows.counts(attrib, FixedWindows.Daily)
    val sum   = daily.agg(org.apache.spark.sql.functions.sum("cnt")).first().getLong(0)
    assert(sum === attrib.count())
  }

  test("weekly and monthly counts sum to the attribution total") {
    for (g <- Seq(FixedWindows.Weekly, FixedWindows.Monthly)) {
      val sum = FixedWindows.counts(attrib, g)
        .agg(org.apache.spark.sql.functions.sum("cnt")).first().getLong(0)
      assert(sum === attrib.count(), g.name)
    }
  }

  test("window ids span the expected calendar ranges") {
    def ids(g: FixedWindows.Granularity): Seq[Long] =
      FixedWindows.counts(attrib, g).select("window_id").distinct()
        .collect().map(_.getLong(0)).sorted.toSeq
    val days = ids(FixedWindows.Daily)
    assert(days.head === 1L && days.last === 365L)
    val weeks = ids(FixedWindows.Weekly)
    assert(weeks.head === 1L && weeks.last === 53L)
    val months = ids(FixedWindows.Monthly)
    assert(months === (1L to 12L))
  }

  test("within one window, (miner) rows are unique") {
    val daily = FixedWindows.counts(attrib, FixedWindows.Daily)
    assert(daily.groupBy("window_id", "miner").count()
      .where(org.apache.spark.sql.functions.col("count") > 1).count() === 0L)
  }

  test("oracle: daily counts match DuckDB GROUP BY") {
    Oracle.assertEquivalent(
      FixedWindows.counts(attrib, FixedWindows.Daily),
      """SELECT CAST(day AS BIGINT) AS window_id, miner, COUNT(*) AS cnt
        |FROM attrib GROUP BY 1, 2""".stripMargin,
      "attrib" -> attrib,
    )
  }

  test("oracle: weekly counts match DuckDB GROUP BY") {
    Oracle.assertEquivalent(
      FixedWindows.counts(attrib, FixedWindows.Weekly),
      """SELECT CAST(week AS BIGINT) AS window_id, miner, COUNT(*) AS cnt
        |FROM attrib GROUP BY 1, 2""".stripMargin,
      "attrib" -> attrib,
    )
  }

  test("oracle: monthly counts match DuckDB GROUP BY") {
    Oracle.assertEquivalent(
      FixedWindows.counts(attrib, FixedWindows.Monthly),
      """SELECT CAST(month AS BIGINT) AS window_id, miner, COUNT(*) AS cnt
        |FROM attrib GROUP BY 1, 2""".stripMargin,
      "attrib" -> attrib,
    )
  }

  test("oracle: week/month derivation from day matches DuckDB date arithmetic") {
    val derived = attrib
      .select("block_number", "day", "week", "month")
      .distinct()
    Oracle.assertEquivalent(
      derived,
      """SELECT DISTINCT CAST(block_number AS BIGINT) AS block_number,
        |       CAST(day AS INT) AS day,
        |       CAST((CAST(day AS INT) - 1) // 7 + 1 AS INT) AS week,
        |       CAST(month(DATE '2019-01-01' + (CAST(day AS INT) - 1)) AS INT) AS month
        |FROM attrib""".stripMargin,
      "attrib" -> attrib,
    )
  }

  test("month mapping agrees with the Scala mirror for all 365 days") {
    val got = attrib.select("day", "month").distinct()
      .collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    for ((d, m) <- got) assert(m === TestPipeline.monthOfDay(d), s"day $d")
  }
}
