package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.catalyst.expressions.{CreateArray, Greatest, IntegralDivide, Least, Pmod}
import org.apache.spark.sql.execution.{GenerateExec, SortExec, SparkPlan}
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.types.LongType
import repro.{Oracle, SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
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
    ).toDF("block_number", "day", "miner")
      // A null block number is an attribution of its day, but no block.
      .union(Seq[(Option[Long], Int, String)]((None, 15, "d")).toDF("block_number", "day", "miner"))
      .repartition(4)
    assert(attrib.where(col("block_number") === 32769L).select(spark_partition_id()).distinct().count() > 1)
    Oracle.assertEquivalent(Tables.t1Dataset(Seq(bSpec -> attrib)),
      """SELECT 'bitcoin' AS chain, COUNT(DISTINCT CAST(block_number AS BIGINT)) AS blocks,
        |  COUNT(*) AS attributions, COUNT(DISTINCT miner) AS producers,
        |  MIN(CAST(block_number AS BIGINT)) AS first_block, MAX(CAST(block_number AS BIGINT)) AS last_block,
        |  COUNT(DISTINCT day) AS days FROM a""".stripMargin,
      "a" -> attrib)
    Oracle.assertEquivalent(
      Tables.day14Case(attrib).where(col("label") =!= "daily_mean").select("label", "blocks", "attributions"),
      """SELECT 'day_' || CAST(day AS INTEGER) AS label, COUNT(DISTINCT CAST(block_number AS BIGINT)) AS blocks,
        |  COUNT(*) AS attributions FROM a GROUP BY CAST(day AS INTEGER)""".stripMargin,
      "a" -> attrib)
  }

  test("T1 shuffles fewer records than a tenth of its distinct blocks") {
    val blocks = bSpec.blockCount + eSpec.blockCount
    val written = executedShuffles(Tables.t1Dataset(Seq(bSpec -> bAttrib, eSpec -> eAttrib))).map(recordsWritten).sum
    assert(written > 0L && written * 10L < blocks, s"$written shuffle records for $blocks blocks")
  }

  /** Rows of a report table by (granularity or window, metric). */
  private def byKey(t: DataFrame, g: String, m: String): Map[(String, String), Row] =
    t.collect().map(r => (r.getAs[String](g), r.getAs[String](m)) -> r).toMap

  private def assertClose(got: Double, want: Double, what: String, tolerance: Double = 1e-12): Unit =
    assert(math.abs(got - want) <= tolerance, s"$what: $got vs $want")

  /** A value with each `Double` as its raw bits, so equal values are bit-identical. */
  private def bits(v: Any): Any = v match {
    case d: Double => java.lang.Double.doubleToRawLongBits(d)
    case v         => v
  }

  test("T2/T3, T4 and T7 rows equal the statistics of each single Pipeline series") {
    val t7 = byKey(Tables.comparison(bAttrib, eAttrib), "granularity", "metric")
    for ((spec, attrib, side) <- Seq((bSpec, bAttrib, "btc"), (eSpec, eAttrib, "eth"))) {
      val fixed = Tables.fixedSummary(spec.name, attrib)
      assert(fixed.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSeq ===
        (for (g <- FixedWindows.all; m <- Metrics.names) yield (spec.name, g.name, m)))
      val t23 = byKey(fixed, "granularity", "metric")
      val t4  = Tables.slidingSummary(spec, attrib).collect().map(r => r.getAs[String]("window") -> r).toMap
      assert(t4.size === 3)
      for (g <- FixedWindows.all) {
        for (w <- Pipeline.summary(TestPipeline.fixed(attrib, g)).collect()) {
          val metric = w.getAs[String]("metric")
          val what   = s"${spec.name} ${g.name} $metric"
          val r = t23((g.name, metric))
          for (c <- Seq("windows", "mean", "stddev", "min", "max"))
            assert(bits(r.getAs[Any](c)) === bits(w.getAs[Any](c)), s"$what $c: ${r.getAs[Any](c)} vs ${w.getAs[Any](c)}")
          for (c <- Seq("mean", "stddev"))
            assert(bits(t7((g.name, metric)).getAs[Any](s"${side}_$c")) === bits(r.getAs[Any](c)), s"T7 $what $c")
        }
        val s = TestPipeline.sliding(attrib, spec, g.slidingSize(spec))
          .agg(count(lit(1)), avg("gini"), avg("entropy"), avg(col("nakamoto").cast("double"))).first()
        val r = t4(g.name)
        assert(r.getAs[Long]("windows") === s.getLong(0), s"${spec.name} ${g.name} windows")
        for ((m, i) <- Metrics.names.zipWithIndex)
          assert(bits(r.getAs[Double](s"mean_$m")) === bits(s.getDouble(i + 1)), s"${spec.name} ${g.name} mean_$m")
      }
    }
  }

  test("T4 and T5 keep the row of a window size with no window (S < N)") {
    val spec: ChainSpec = ChainParams.btc2019.copy(blockCount = 3000, slidingMonth = 5000)
    val attrib = BlockGenerator.attributions(spark, spec, 24L).cache()
    val t4 = Tables.slidingSummary(spec, attrib).collect().map(r => r.getAs[String]("window") -> r).toMap
    assert(t4.keySet === Set("day", "week", "month"))
    val month = t4("month")
    assert(month.getAs[Long]("expected_L") === 0L && month.getAs[Long]("windows") === 0L)
    for (m <- Metrics.names) assert(month.isNullAt(month.fieldIndex(s"mean_$m")), m)
    assert(t4("week").getAs[Long]("windows") === t4("week").getAs[Long]("expected_L"))
    val t5 = byKey(Tables.revealSummary(spec, attrib), "granularity", "metric")
    assert(t5.size === 9)
    for (m <- Metrics.names) {
      val r = t5(("month", m))
      assert(r.getAs[Long]("results_sliding") === 0L && r.getAs[Long]("extremes_sliding") === 0L, m)
      assert(r.getAs[Long]("results_fixed") === 12L, m)
    }
    attrib.unpersist()
  }

  /** The report tables, with the attribution tables they aggregate. */
  private lazy val reportTables = Seq(
    ("T1", Seq(bAttrib, eAttrib), () => Tables.t1Dataset(Seq(bSpec -> bAttrib, eSpec -> eAttrib))),
    ("T2", Seq(bAttrib), () => Tables.fixedSummary(bSpec.name, bAttrib)),
    ("T3", Seq(eAttrib), () => Tables.fixedSummary(eSpec.name, eAttrib)),
    ("T4", Seq(bAttrib), () => Tables.slidingSummary(bSpec, bAttrib)),
    ("T5", Seq(bAttrib), () => Tables.revealSummary(bSpec, bAttrib)),
    ("T6", Seq(bAttrib), () => Tables.day14Case(bAttrib)),
    ("T7", Seq(bAttrib, eAttrib), () => Tables.comparison(bAttrib, eAttrib)),
  )

  test("each report table is one keyed plan: Spark jobs per table stay at their gates") {
    bAttrib.count(); eAttrib.count()
    val jobs = reportTables.map { case (name, _, table) => name -> jobsRun(Render.table(table())) }
    info(s"Spark jobs per table: ${jobs.map { case (t, n) => s"$t $n" }.mkString(", ")}")
    for ((name, n) <- jobs) assert(n === 1L, s"$name: $n Spark jobs, gate 1; all: $jobs")
  }

  test("T2-T7 end their Spark plans at the window aggregate: no sort, window function or generator") {
    bAttrib.count(); eAttrib.count()
    for ((name, _, table) <- reportTables) {
      val plans = plansRun(Render.table(table()))
      val ops = plans.flatMap(_.collect {
        case p @ (_: SortExec | _: WindowExec | _: GenerateExec) => p.nodeName
      })
      assert(name == "T1" || ops.isEmpty, s"$name runs ${ops.mkString(", ")}")
      // Window membership is plain Scala inside the aggregator, not Catalyst arithmetic per row.
      val arithmetic = plans.flatMap(_.collect { case p => p.expressions.flatMap(_.collect {
        case e @ (_: Pmod | _: IntegralDivide | _: Greatest | _: Least) => e.nodeName
      }) }.flatten)
      assert(arithmetic.isEmpty, s"$name evaluates ${arithmetic.distinct.mkString(", ")}")
      // T4's three sliding series read one position column, `idx`, once.
      val positions = plans.flatMap(_.collect { case a: BaseAggregateExec =>
        a.aggregateExpressions.flatMap(_.collect { case c: CreateArray => c.children.size })
      }.flatten)
      assert(name != "T4" || (positions.nonEmpty && positions.forall(_ == 1)), s"T4 aggregates position arrays of $positions")
    }
  }

  /** Whether `p` scans a cached relation before any other shuffle's output. */
  private def scansCache(p: SparkPlan): Boolean = p match {
    case _: InMemoryTableScanExec => true
    case _: ShuffleExchangeExec   => false
    case _                        => p.children.exists(scansCache)
  }

  test("each count table aggregates each chain's cached attribution table in one shuffle") {
    bAttrib.count(); eAttrib.count()
    for ((name, attribs, table) <- reportTables) {
      val shuffles = shufflesRun(Render.table(table()))
      assert(shuffles.size === attribs.size && shuffles.forall(e => scansCache(e.child)),
        s"$name: ${shuffles.size} executed shuffles, ${shuffles.count(e => scansCache(e.child))} read a cached table")
    }
  }

  test("T1-T7 together read every cached attribution column, and no other") {
    bAttrib.count(); eAttrib.count()
    val plans = plansRun(reportTables.foreach { case (_, _, table) => Render.table(table()) })
    val read = plans.flatMap(_.collect { case s: InMemoryTableScanExec => s.attributes.map(_.name) }).flatten.toSet
    assert(read === bAttrib.columns.toSet, "a cached column no table reads only costs memory")
  }

  /** Asserts that each named report table writes at most one shuffle record per attribution-table partition. */
  private def assertShuffleRecordsWithinPartitions(names: Set[String]): Unit = {
    bAttrib.count(); eAttrib.count()
    for ((name, attribs, table) <- reportTables if names(name)) {
      val written = shufflesRun(Render.table(table())).map(recordsWritten).sum
      val partitions = attribs.map(_.rdd.getNumPartitions).sum
      assert(written > 0L && written <= partitions, s"$name: $written shuffle records, $partitions partitions")
    }
  }

  test("T2-T5 and T7 write no more shuffle records than their attribution tables have partitions") {
    assertShuffleRecordsWithinPartitions(Set("T2", "T3", "T4", "T5", "T7"))
  }

  test("T1 and T6 write no more shuffle records than their attribution tables have partitions") {
    assertShuffleRecordsWithinPartitions(Set("T1", "T6"))
  }

  test("a null window column fails a report table instead of being measured") {
    import spark.implicits._
    val attrib = Seq[(Option[Long], Option[Int], String)]((Some(0L), Some(1), "a"), (Some(1L), Some(1), "b"),
        (Some(2L), Some(2), "a"), (Some(3L), None, "b"), (None, Some(2), "c"))
      .toDF("idx", "day", "miner").select(col("*"), col("day").as("week"), col("day").as("month"))
    val (nullDay, nullIdx) = (attrib.where(col("idx").isNotNull), attrib.where(col("day").isNotNull))
    assertFails("null day", "a window id must not be null")(Tables.fixedSummary("bitcoin", nullDay).collect())
    assertFails("null idx", "a window id must not be null")(Tables.slidingSummary(bSpec, nullIdx))
  }

  test("a null producer fails T1 and T6 instead of being dropped from the producer count") {
    import spark.implicits._
    val attrib = Seq[(Long, Long, Int, String)]((0L, 0L, 14, "a"), (1L, 1L, 14, null), (2L, 2L, 15, "b"))
      .toDF("block_number", "idx", "day", "miner")
    assertFails("T1", "a producer (miner) must not be null")(Tables.t1Dataset(Seq(bSpec -> attrib)).collect())
    assertFails("T6", "a producer (miner) must not be null")(Tables.day14Case(attrib).collect())
  }

  /** Asserts that `body` fails with an error whose message (or a cause's) contains `message`. */
  private def assertFails(what: String, message: String)(body: => Any): Unit = {
    val e = intercept[Exception](body)
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).flatMap(t => Option(t.getMessage))
    assert(messages.exists(_.contains(message)), s"$what: $e")
  }

  test("series and Metrics.all are bit-identical however the attribution table is partitioned") {
    def rows(windows: Seq[Product]): Seq[Seq[Any]] = windows.map(_.productIterator.map(bits).toSeq)
    for ((spec, seed) <- Seq(bSpec, eSpec).flatMap(s => Seq(1L, 2L, 3L).map(s -> _))) {
      val attrib = BlockGenerator.attributions(spark, spec, seed).cache()
      val layouts = Seq(attrib, attrib.repartition(1), attrib.orderBy(rand(seed)).repartition(7))
      val series = Tables.Fixed(FixedWindows.Daily) +: FixedWindows.all.map { g =>
        val n = g.slidingSize(spec)
        Tables.Sliding(g.name, n, SlidingWindows.paperStep(n), spec.blockCount)
      }
      val got = layouts.map { a =>
        val measured = FixedWindows.all.flatMap(g =>
          Metrics.all(FixedWindows.counts(a, g)).collect().toSeq.map(r => g.name +: r.toSeq.map(bits)))
        (rows(Tables.windowsOf(Seq(a), series, col("block_number")).flatten.flatten), measured.sortBy(_.toString))
      }
      assert(got.forall(_ == got.head), s"${spec.name} seed $seed")
      assert(got.head._1.size > 365 && got.head._2.size === 365 + 53 + 12)
      attrib.unpersist()
    }
  }

  test("T1 and T6 equal a plain-Scala computation however the attribution table is partitioned") {
    for ((spec, seed) <- Seq(bSpec, eSpec).flatMap(s => Seq(1L, 2L, 3L).map(s -> _))) {
      val attrib = BlockGenerator.attributions(spark, spec, seed).cache()
      val rows = attrib.select("block_number", "day", "miner").collect().toSeq
        .map(r => (r.getLong(0), r.getInt(1), r.getString(2)))
      def distinct[A](xs: Seq[A]) = xs.distinct.size.toLong
      val blocks = rows.map(_._1)
      val t1 = Seq(spec.name, distinct(blocks), rows.size.toLong, distinct(rows.map(_._3)),
        blocks.min, blocks.max, distinct(rows.map(_._2)))
      val columns = Seq("blocks", "producers", "attributions", "gini", "entropy", "nakamoto")
      val days = rows.groupBy(_._2).toSeq.sortBy(_._1).map { case (d, rs) =>
        val counts = rs.groupBy(_._3).values.map(_.size.toLong).toSeq
        d -> Seq(distinct(rs.map(_._1)).toDouble, counts.size.toDouble, rs.size.toDouble,
          LocalMetrics.gini(counts), LocalMetrics.entropy(counts), LocalMetrics.nakamoto(counts).toDouble)
      }
      // As Spark's `avg`: a sum in day order over the number of days, truncated for a Long column.
      val mean = columns.zipWithIndex.map { case (c, i) =>
        val m = days.map(_._2(i)).sum / days.size
        if (c == "gini" || c == "entropy") m else m.toLong.toDouble
      }
      val t6 = days.collect { case (d, v) if d >= 12 && d <= 16 => s"day_$d" -> v } :+ ("daily_mean" -> mean)
      for ((layout, a) <- Seq("cached" -> attrib, "one partition" -> attrib.repartition(1),
                              "shuffled into 7" -> attrib.orderBy(rand(seed)).repartition(7))) {
        val what = s"${spec.name} seed $seed, $layout"
        assert(Tables.t1Dataset(Seq(spec -> a)).collect().map(_.toSeq).toSeq === Seq(t1), s"T1 $what")
        val got = Tables.day14Case(a).collect().toSeq
        assert(got.map(_.getString(0)) === t6.map(_._1), s"T6 $what")
        for ((r, (label, want)) <- got.zip(t6); (c, w) <- columns.zip(want)) {
          val v = r.getAs[Any](c) match { case x: Long => x.toDouble; case x: Double => x }
          if (c == "entropy") assertClose(v, w, s"T6 $what $label $c", 1e-9)
          else assert(v === w, s"T6 $what $label $c")
        }
      }
      attrib.unpersist()
    }
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
    val rows = Tables.revealSummary(bSpec, bAttrib).collect()
    assert(rows.length === 9)
    val t5 = rows.map(r => (r.getString(1), r.getString(2)) -> r).toMap
    for (g <- FixedWindows.all) {
      val fixedS   = TestPipeline.fixed(bAttrib, g).cache()
      val slidingS = TestPipeline.sliding(bAttrib, bSpec, g.slidingSize(bSpec)).cache()
      for (metric <- Metrics.names) {
        val want = Seq(fixedS.count(), Anomaly.countExtremes(fixedS, metric, Tables.ExtremeZ),
                       slidingS.count(), Anomaly.countExtremes(slidingS, metric, Tables.ExtremeZ))
        assert((3 to 6).map(t5((g.name, metric)).getLong) === want, s"${g.name}/$metric")
      }
      fixedS.unpersist(); slidingS.unpersist()
    }
  }

  test("T6 day14Case: day 14 stands out from the daily mean") {
    val t6   = Tables.day14Case(bAttrib).collect()
    assert(t6.map(_.getString(0)).toSeq === (12 to 16).map(d => s"day_$d") :+ "daily_mean")
    val rows = t6.map(r => r.getString(0) -> r).toMap
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
