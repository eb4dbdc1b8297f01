package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.{Oracle, SparkSpec}
import repro.chain.{BlockGenerator, ChainParams}
import repro.util.Render

/** Shape and internal-consistency checks of the report-table builders
  * (full-scale values are asserted in bench/).
  */
class TablesSpec extends SparkSpec {

  private lazy val bSpec = ChainParams.btc2019.scaled(0.05)
  private lazy val eSpec = ChainParams.eth2019.scaled(0.005)
  private lazy val bAttrib: DataFrame = BlockGenerator.attributions(spark, bSpec, 21L).cache()
  private lazy val eAttrib: DataFrame = BlockGenerator.attributions(spark, eSpec, 22L).cache()

  test("T1: one row per chain with exact block counts") {
    val t1   = Tables.t1Dataset(Seq(bSpec -> bAttrib, eSpec -> eAttrib))
    val rows = t1.collect().map(r => r.getString(0) -> r).toMap
    assert(rows.keySet === Set("bitcoin", "ethereum"))
    val b = rows("bitcoin")
    assert(b.getLong(b.fieldIndex("blocks")) === bSpec.blockCount)
    assert(b.getLong(b.fieldIndex("first_block")) === bSpec.firstBlock)
    assert(b.getLong(b.fieldIndex("last_block")) === bSpec.firstBlock + bSpec.blockCount - 1)
    assert(b.getLong(b.fieldIndex("days")) === 365L)
    // anomalies inflate attributions beyond blocks
    assert(b.getLong(b.fieldIndex("attributions")) > b.getLong(b.fieldIndex("blocks")))
    val e = rows("ethereum")
    assert(e.getLong(e.fieldIndex("attributions")) === e.getLong(e.fieldIndex("blocks")))
  }

  test("T1 of an empty attribution table reports zero counts, not null") {
    val empty = spark.createDataFrame(spark.sparkContext.emptyRDD[Row], bAttrib.schema)
    val t1 = Tables.t1Dataset(Seq(bSpec -> empty))
    assert(t1.schema.fields.tail.forall(_.dataType == LongType))
    val rows = t1.collect()
    assert(rows.length === 1)
    val r = rows.head
    for (c <- Seq("blocks", "attributions", "producers", "days")) assert(r.getAs[Long](c) === 0L, c)
    assert(r.isNullAt(r.fieldIndex("first_block")) && r.isNullAt(r.fieldIndex("last_block")))
  }

  test("T1 and T6 block counts equal DuckDB's COUNT(DISTINCT) across buckets and partitions") {
    import spark.implicits._
    // Blocks either side of 0 and of the 32,768-block bitmap buckets; every
    // day holds two blocks at the same bit position of different buckets.
    // Block 32,769 has four producers, spread over partitions by the repartition.
    val attrib = Seq(
      (0L, 12, "a"), (-1L, 12, "b"), (-32768L, 12, "a"),
      (32768L, 13, "b"), (65536L, 13, "c"), (-32769L, 13, "a"),
      (32769L, 14, "a"), (32769L, 14, "x1"), (32769L, 14, "x2"), (32769L, 14, "x3"), (65537L, 14, "b"),
      (1L, 15, "c"), (-65536L, 15, "a"),
      (2L, 16, "a"), (-65537L, 16, "b"),
    ).toDF("block_number", "day", "miner").repartition(4)
    assert(attrib.where(col("block_number") === 32769L).select(spark_partition_id()).distinct().count() > 1)
    Oracle.assertEquivalent(Tables.t1Dataset(Seq(bSpec -> attrib)),
      """SELECT 'bitcoin' AS chain, COUNT(DISTINCT CAST(block_number AS BIGINT)) AS blocks,
        |  COUNT(*) AS attributions, COUNT(DISTINCT miner) AS producers,
        |  MIN(CAST(block_number AS BIGINT)) AS first_block, MAX(CAST(block_number AS BIGINT)) AS last_block,
        |  COUNT(DISTINCT day) AS days FROM a""".stripMargin,
      "a" -> attrib)
    Oracle.assertEquivalent(
      Tables.day14Case(attrib).where(col("label") =!= "daily_mean").select("label", "blocks"),
      """SELECT 'day_' || CAST(day AS INTEGER) AS label, COUNT(DISTINCT CAST(block_number AS BIGINT)) AS blocks
        |FROM a GROUP BY CAST(day AS INTEGER)""".stripMargin,
      "a" -> attrib)
  }

  test("T1 shuffles fewer records than a tenth of its distinct blocks") {
    val blocks = bSpec.blockCount + eSpec.blockCount
    val written = executedShuffles(Tables.t1Dataset(Seq(bSpec -> bAttrib, eSpec -> eAttrib))).map(recordsWritten).sum
    assert(written > 0L && written * 10L < blocks, s"$written shuffle records for $blocks blocks")
  }

  test("T2/T3 fixedSummary: 3 granularities × 3 metrics") {
    val t2 = Tables.fixedSummary("bitcoin", bAttrib)
    assert(t2.count() === 9L)
    assert(t2.select("granularity").distinct().collect().map(_.getString(0)).toSet ===
      Set("day", "week", "month"))
    assert(t2.where(col("chain") =!= "bitcoin").count() === 0L)
  }

  test("T4 slidingSummary: windows column equals Eq. 5's L") {
    val t4 = Tables.slidingSummary(bSpec, bAttrib)
    val rows = t4.collect()
    assert(rows.length === 3)
    for (r <- rows)
      assert(r.getLong(r.fieldIndex("windows")) === r.getLong(r.fieldIndex("expected_L")),
        r.getString(r.fieldIndex("window")))
  }

  test("T4: sliding mean gini increases with window size (granularity effect)") {
    val t4 = Tables.slidingSummary(bSpec, bAttrib).collect()
      .map(r => r.getString(1) -> r.getDouble(r.fieldIndex("mean_gini"))).toMap
    assert(t4("day") < t4("week"))
    assert(t4("week") < t4("month"))
  }

  test("T5 revealSummary: sliding produces more results than fixed") {
    val t5 = Tables.revealSummary(bSpec, bAttrib)
    for (r <- t5.collect()) {
      val fixedN   = r.getLong(r.fieldIndex("results_fixed"))
      val slidingN = r.getLong(r.fieldIndex("results_sliding"))
      assert(slidingN > fixedN,
        s"${r.getString(1)}/${r.getString(2)}: sliding $slidingN <= fixed $fixedN")
    }
    assert(t5.count() === 9L)
  }

  test("T5 revealSummary leaves no cached series behind") {
    // Its own seed, so no series plan is already cached by another test.
    val attrib = BlockGenerator.attributions(spark, bSpec, 23L)
    val before = spark.sparkContext.getPersistentRDDs.size
    Tables.revealSummary(bSpec, attrib).collect()
    assert(spark.sparkContext.getPersistentRDDs.size === before)
  }

  test("T5 revealSummary rows equal count() and countExtremes on the Pipeline series") {
    val t5 = Seq(2.0, 1.0).map { z =>
      val rows = Tables.revealSummary(bSpec, bAttrib, z).collect()
      assert(rows.length === 9)
      z -> rows.map(r => (r.getString(1), r.getString(2)) -> r).toMap
    }
    for (g <- FixedWindows.all) {
      val fixedS   = Pipeline.fixed(bAttrib, g).cache()
      val slidingS = Pipeline.sliding(bAttrib, bSpec, g.slidingSize(bSpec)).cache()
      for ((z, rows) <- t5; metric <- Metrics.names) {
        val want = Seq(fixedS.count(), Anomaly.countExtremes(fixedS, metric, z),
                       slidingS.count(), Anomaly.countExtremes(slidingS, metric, z))
        assert((3 to 6).map(rows((g.name, metric)).getLong) === want, s"z=$z ${g.name}/$metric")
      }
      fixedS.unpersist(); slidingS.unpersist()
    }
  }

  test("T5 revealSummary rejects a non-positive z") {
    val e = intercept[IllegalArgumentException](Tables.revealSummary(bSpec, bAttrib, z = 0.0))
    assert(e.getMessage.contains("bad z threshold"))
  }

  test("T6 day14Case: day 14 stands out from the daily mean") {
    val t6   = Tables.day14Case(bAttrib)
    val rows = t6.collect().map(r => r.getString(0) -> r).toMap
    assert(rows.contains("day_14") && rows.contains("daily_mean"))
    val d14  = rows("day_14"); val mean = rows("daily_mean")
    // the two injected multi-producer blocks bring ~180 extra producers
    assert(d14.getLong(d14.fieldIndex("producers")) >
      2L * mean.getLong(mean.fieldIndex("producers")))
    assert(d14.getDouble(d14.fieldIndex("entropy")) >
      mean.getDouble(mean.fieldIndex("entropy")))
    assert(d14.getDouble(d14.fieldIndex("gini")) <
      mean.getDouble(mean.fieldIndex("gini")))
    assert(d14.getLong(d14.fieldIndex("attributions")) >
      d14.getLong(d14.fieldIndex("blocks")))
  }

  test("T7 comparison: verdict columns are consistent with the means") {
    val t7 = Tables.comparison(bAttrib, eAttrib)
    assert(t7.count() === 9L)
    for (r <- t7.collect()) {
      val metric = r.getString(1)
      val bMean  = r.getDouble(2); val eMean = r.getDouble(3)
      val verdict = r.getString(4)
      val expected = if (metric == "gini") { if (bMean < eMean) "bitcoin" else "ethereum" }
                     else { if (bMean > eMean) "bitcoin" else "ethereum" }
      assert(verdict === expected, s"$metric")
    }
  }

  test("topShares returns k rows with shares summing below 1 and ordered") {
    val counts = FixedWindows.counts(bAttrib, FixedWindows.Monthly)
    val top    = Tables.topShares(counts, windowId = 6L, k = 5).collect()
    assert(top.length === 5)
    val shares = top.map(_.getDouble(2))
    assert(shares.sum < 1.0 + 1e-9)
    assert(shares.sliding(2).forall { case Array(a, b) => a >= b })
  }

  test("Render.table produces an aligned header and rows") {
    import spark.implicits._
    val df  = Seq((1L, "a", 0.5), (2L, "bb", 1.0)).toDF("id", "name", "x")
    val out = Render.table(df)
    val lines = out.split("\n")
    assert(lines.length === 4)
    assert(lines.head.contains("id") && lines.head.contains("name"))
    assert(lines.forall(_.startsWith("|")))
    assert(lines(2).contains("0.5000"))
  }
}
