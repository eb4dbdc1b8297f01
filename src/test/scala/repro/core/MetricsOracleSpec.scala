package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.chain.{BlockGenerator, ChainParams}

/** DuckDB SQL mirrors of the metric kernel, compared row-exactly. Gini and
  * Nakamoto stay in integer arithmetic until a single division, so they
  * compare bit-exact; entropy is rounded to 3 decimals on both sides.
  */
class MetricsOracleSpec extends SparkSpec {

  private lazy val spec = ChainParams.btc2019.scaled(0.02)
  private lazy val counts: DataFrame =
    FixedWindows.counts(
      BlockGenerator.attributions(spark, spec, seed = 11L), FixedWindows.Weekly).cache()
  private lazy val metrics: DataFrame = Metrics.all(counts).cache()

  test("oracle: gini matches DuckDB rank-formula SQL bit-exactly") {
    Oracle.assertEquivalent(
      metrics.select("window_id", "gini"),
      """WITH c AS (
        |  SELECT CAST(window_id AS BIGINT) AS w, miner, CAST(cnt AS BIGINT) AS cnt
        |  FROM counts
        |), r AS (
        |  SELECT w, cnt,
        |         ROW_NUMBER() OVER (PARTITION BY w ORDER BY cnt ASC, miner ASC) AS rk
        |  FROM c
        |)
        |SELECT w AS window_id,
        |       CAST(2 * SUM(rk * cnt) - (COUNT(*) + 1) * SUM(cnt) AS DOUBLE) /
        |       CAST(COUNT(*) * SUM(cnt) AS DOUBLE) AS gini
        |FROM r GROUP BY w""".stripMargin,
      "counts" -> counts,
    )
  }

  test("oracle: nakamoto matches DuckDB cumulative-share SQL exactly") {
    Oracle.assertEquivalent(
      metrics.select("window_id", "nakamoto"),
      """WITH c AS (
        |  SELECT CAST(window_id AS BIGINT) AS w, miner, CAST(cnt AS BIGINT) AS cnt
        |  FROM counts
        |), r AS (
        |  SELECT w, cnt,
        |         ROW_NUMBER() OVER (PARTITION BY w ORDER BY cnt DESC, miner ASC) AS rk,
        |         SUM(cnt) OVER (PARTITION BY w ORDER BY cnt DESC, miner ASC
        |                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cum,
        |         SUM(cnt) OVER (PARTITION BY w) AS tot
        |  FROM c
        |)
        |SELECT w AS window_id, MIN(rk) AS nakamoto
        |FROM r WHERE cum * 100 >= tot * 51 GROUP BY w""".stripMargin,
      "counts" -> counts,
    )
  }

  test("oracle: entropy matches DuckDB at 3 decimals") {
    Oracle.assertEquivalent(
      metrics.select(col("window_id"), round(col("entropy"), 3).as("entropy")),
      """WITH c AS (
        |  SELECT CAST(window_id AS BIGINT) AS w, miner, CAST(cnt AS DOUBLE) AS cnt
        |  FROM counts
        |), p AS (
        |  SELECT w, cnt / SUM(cnt) OVER (PARTITION BY w) AS p FROM c
        |)
        |SELECT w AS window_id, ROUND(SUM(p * LOG2(1.0 / p)), 3) AS entropy
        |FROM p GROUP BY w""".stripMargin,
      "counts" -> counts,
    )
  }

  test("oracle: per-window population stats match DuckDB") {
    Oracle.assertEquivalent(
      metrics.select("window_id", "producers", "attributions"),
      """SELECT CAST(window_id AS BIGINT) AS window_id,
        |       COUNT(*) AS producers,
        |       SUM(CAST(cnt AS BIGINT)) AS attributions
        |FROM counts GROUP BY 1""".stripMargin,
      "counts" -> counts,
    )
  }
}
