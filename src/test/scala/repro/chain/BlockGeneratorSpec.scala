package repro.chain

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{RangeExec, UnionExec}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType, StringType}
import repro.{SparkSpec, TestPipeline}
import repro.core.Tables

/** The synthetic-chain generator: determinism, schema, calendar columns,
  * regime boundaries, share calibration and anomaly injection.
  */
class BlockGeneratorSpec extends SparkSpec {

  private lazy val spec = ChainParams.btc2019.scaled(0.1) // 5,423 blocks
  private lazy val attrib: DataFrame =
    BlockGenerator.attributions(spark, spec, seed = 42L).cache()

  test("schema is (block_number, idx, day, miner, week, month), typed") {
    assert(attrib.schema.fields.map(f => f.name -> f.dataType).toSeq === Seq(
      "block_number" -> LongType, "idx" -> LongType, "day" -> IntegerType,
      "miner" -> StringType, "week" -> IntegerType, "month" -> IntegerType))
  }

  test("every block appears exactly once, except anomalous multi-producer blocks") {
    val perBlock = attrib.groupBy("block_number").count()
    val multi    = perBlock.where(col("count") > 1).collect()
    val anomalousBlocks =
      spec.anomalies.map(a => spec.blockAtDay(a.day, a.frac)).toSet
    assert(multi.map(_.getLong(0)).toSet === anomalousBlocks)
    assert(perBlock.count() === spec.blockCount)
  }

  test("anomalous blocks carry the configured number of one-off producers") {
    val expect = spec.anomalies
      .groupBy(a => spec.blockAtDay(a.day, a.frac))
      .map { case (bn, as) => bn -> as.map(_.nProducers).sum }
    val got = attrib
      .where(col("block_number").isInCollection(expect.keys.toSeq))
      .groupBy("block_number").count()
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    for ((bn, n) <- expect) assert(got(bn) === n.toLong, s"block $bn")
  }

  test("anomalous producers are unique one-off names") {
    val anon = attrib.where(col("miner").startsWith("anon_"))
    assert(anon.count() === spec.anomalies.map(_.nProducers).sum.toLong)
    assert(anon.select("miner").distinct().count() === anon.count())
  }

  test("anomalies sharing a block add up: scaled BTC day 14 has 180 one-off producers") {
    // At scale 0.005 (~0.74 blocks a day) the 85- and 95-producer day-14 anomalies land on one block.
    val small  = ChainParams.btc2019.scaled(0.005)
    val shared = small.anomalies.filter(_.day == 14).map(a => small.blockAtDay(a.day, a.frac)).distinct
    assert(shared.size === 1)
    val rows   = BlockGenerator.attributions(spark, small)
    val r      = rows.where(col("block_number") === shared.head)
      .agg(count("*"), countDistinct("miner"), count(when(col("miner").startsWith("anon_"), 1))).first()
    assert((r.getLong(0), r.getLong(1), r.getLong(2)) === ((180L, 180L, 180L)))
    val day14 = Tables.day14Case(rows).where(col("label") === "day_14").first()
    assert(day14.getAs[Long]("attributions") === 180L)
    assert(day14.getAs[Long]("producers") === 180L)
    assert(day14.getAs[Double]("gini") === 0.0)
    assert(day14.getAs[Long]("nakamoto") === 92L)
  }

  test("the table is one scan: one Range leaf, no Union, spark.range's partitions") {
    assert(spec.anomalies.nonEmpty)
    val df     = BlockGenerator.attributions(spark, spec)
    val plan   = df.queryExecution.executedPlan
    val leaves = plan.collectLeaves()
    assert(leaves.size === 1 && leaves.head.isInstanceOf[RangeExec], plan)
    assert(plan.collect { case u: UnionExec => u }.isEmpty, plan)
    assert(df.rdd.getNumPartitions === spark.range(spec.blockCount).rdd.getNumPartitions)
  }

  test("block numbers are contiguous from firstBlock") {
    val r = attrib.agg(
      min("block_number"), max("block_number"), countDistinct("block_number")).first()
    assert(r.getLong(0) === spec.firstBlock)
    assert(r.getLong(1) === spec.firstBlock + spec.blockCount - 1)
    assert(r.getLong(2) === spec.blockCount)
  }

  test("idx = block_number - firstBlock everywhere") {
    assert(attrib.where(col("idx") =!= col("block_number") - spec.firstBlock).count() === 0L)
  }

  /** `(idx, day)` of every block, in idx order, for the BTC fixture and ETH at
    * scale 0.1, which has blocks less than a second before midnight, where the
    * timestamp's rounding shows. A block's timestamp `ts_sec` is not a column:
    * it is `ChainSpec.tsOf(idx)`.
    */
  private lazy val blockDays: Seq[(ChainSpec, Array[(Long, Int)])] = {
    val eth = ChainParams.eth2019.scaled(0.1)
    for ((s, a) <- Seq(spec -> attrib, eth -> BlockGenerator.attributions(spark, eth))) yield
      s -> a.select("idx", "day").distinct().orderBy("idx").collect().map(r => (r.getLong(0), r.getInt(1)))
  }

  test("timestamps are within the year and non-decreasing in idx") {
    for ((s, days) <- blockDays) {
      assert(days.map(_._1).sameElements(0L until s.blockCount), s"${s.name}: not one day per block")
      val ts = days.map { case (i, _) => s.tsOf(i) }
      assert(ts.min === 0L && ts.max < s.yearSeconds, s.name)
      assert(ts.sliding(2).forall { case Array(x, y) => y >= x; case _ => true }, s.name)
      assert(days.sliding(2).forall { case Array(x, y) => y._2 >= x._2; case _ => true }, s.name)
    }
  }

  test("days cover 1..365 and match ts_sec / 86400 + 1") {
    for ((s, days) <- blockDays) {
      val wrong = days.filter { case (i, d) => d != s.tsOf(i) / 86400L + 1 || d != s.dayOf(i) }
      assert(wrong.length === 0, s"${s.name}: blocks off tsOf / 86400 + 1, first ${wrong.take(3).mkString(", ")}")
      assert(days.map(_._2).distinct.toSeq === (1 to 365), s.name)
    }
  }

  test("weeks are 1..53 with the (day-1)/7+1 convention") {
    val bad = attrib.where(col("week") =!= ((col("day") - 1) / 7).cast("int") + 1)
    assert(bad.count() === 0L)
    val r = attrib.agg(min("week"), max("week")).first()
    assert(r.getInt(0) === 1 && r.getInt(1) === 53)
  }

  test("months match the non-leap 2019 calendar") {
    val got = attrib.select("day", "month").distinct()
      .collect().map(r => r.getInt(0) -> r.getInt(1))
    for ((d, m) <- got) assert(m === TestPipeline.monthOfDay(d), s"day $d")
    // spot calendar boundaries
    val byDay = got.toMap
    assert(byDay(31) === 1); assert(byDay(32) === 2)
    assert(byDay(59) === 2); assert(byDay(60) === 3)
    assert(byDay(365) === 12)
  }

  test("generation is deterministic in (spec, seed)") {
    val a = BlockGenerator.attributions(spark, spec, seed = 9L)
    val b = BlockGenerator.attributions(spark, spec, seed = 9L)
    assert(a.exceptAll(b).count() === 0L)
    assert(b.exceptAll(a).count() === 0L)
  }

  test("different seeds give different attribution") {
    val a = BlockGenerator.attributions(spark, spec, seed = 1L)
    val b = BlockGenerator.attributions(spark, spec, seed = 2L)
    assert(a.exceptAll(b).count() > 0L)
  }

  test("regime boundary: early-only pools disappear after day 60") {
    // DPOOL/BitClub exist only in the early BTC regime.
    val late = attrib.where(col("day") > 60 && col("miner").isin("DPOOL", "BitClub"))
    assert(late.count() === 0L)
    val early = attrib.where(col("day") <= 60 && col("miner").isin("DPOOL", "BitClub"))
    assert(early.count() > 0L)
  }

  test("sampled shares track the regime weights (law of large numbers)") {
    val mainDays = attrib.where(col("day") > 60 && !col("miner").startsWith("anon_"))
    val total    = mainDays.count().toDouble
    val topShare = mainDays.where(col("miner") === "BTC.com").count().toDouble / total
    // BTC.com weight is 0.17 in the main regime; 4,500 samples → ±3σ ≈ 0.017
    assert(math.abs(topShare - 0.17) < 0.02, s"got $topShare")
    val poolinShare = mainDays.where(col("miner") === "Poolin").count().toDouble / total
    assert(math.abs(poolinShare - 0.11) < 0.02, s"got $poolinShare")
  }

  test("ETH generator: no anomalies, two regimes, correct counts") {
    val espec = ChainParams.eth2019.scaled(0.01) // 22,046 blocks
    val ea    = BlockGenerator.attributions(spark, espec, seed = 5L).cache()
    assert(ea.count() === espec.blockCount) // exactly one producer per block
    assert(ea.where(col("miner").startsWith("anon_")).count() === 0L)
    val h1Top = ea.where(col("day") <= 181 && col("miner") === "Ethermine").count().toDouble /
      ea.where(col("day") <= 181).count()
    assert(math.abs(h1Top - 0.28) < 0.02, s"got $h1Top")
  }

  test("monthOfDay rejects out-of-range days") {
    intercept[IllegalArgumentException](TestPipeline.monthOfDay(0))
    intercept[IllegalArgumentException](TestPipeline.monthOfDay(366))
  }
}
