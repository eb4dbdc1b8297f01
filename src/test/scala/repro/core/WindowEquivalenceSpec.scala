package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams}

/** Cross-mode consistency: the sliding machinery must degenerate to fixed
  * behaviour in the right limits, and both modes must agree on aggregate
  * invariants over the same data.
  */
class WindowEquivalenceSpec extends SparkSpec {

  private lazy val spec   = ChainParams.btc2019.scaled(0.04) // 2,169 blocks
  private lazy val attrib = BlockGenerator.attributions(spark, spec, seed = 31L).cache()

  test("sliding with M = N partitions blocks like fixed-size block buckets") {
    val n = 100L
    val slidingCounts = SlidingWindows.counts(attrib, n, n, spec.blockCount)
    val bucketCounts = attrib
      .withColumn("window_id", floor(col("idx") / n))
      .where(col("window_id") < SlidingWindows.numWindows(spec.blockCount, n, n))
      .groupBy("window_id", "miner").agg(count(lit(1)).as("cnt"))
    assert(slidingCounts.exceptAll(bucketCounts).count() === 0L)
    assert(bucketCounts.exceptAll(slidingCounts).count() === 0L)
  }

  test("metrics agree between the two equivalent windowings") {
    val n = 100L
    val a = TestPipeline.series(SlidingWindows.counts(attrib, n, n, spec.blockCount))
    val b = TestPipeline.series(
      attrib.withColumn("window_id", floor(col("idx") / n))
        .where(col("window_id") < SlidingWindows.numWindows(spec.blockCount, n, n))
        .groupBy("window_id", "miner").agg(count(lit(1)).as("cnt")))
    assert(a.exceptAll(b).count() === 0L)
  }

  test("every odd sliding window (M=N/2) merges halves of two fixed buckets") {
    // With M = N/2, window j covers exactly the second half of bucket j/2 and
    // the first half of bucket j/2+1 when j is odd. Verify via totals.
    val n = 200L; val m = 100L
    val assign = SlidingWindows.assign(attrib, n, m, spec.blockCount)
    val w1 = assign.where(col("window_id") === 1L)
      .agg(min("idx"), max("idx")).first()
    assert(w1.getLong(0) === 100L && w1.getLong(1) === 299L)
  }

  test("union of non-overlapping sliding windows covers the prefix exactly once") {
    val n = 64L
    val total = SlidingWindows.assign(attrib, n, n, spec.blockCount).count()
    val l = SlidingWindows.numWindows(spec.blockCount, n, n)
    // one membership per attribution row within the covered prefix
    val covered = attrib.where(col("idx") < l * n).count()
    assert(total === covered)
  }

  test("fixed daily series equals sliding series built from day-bucket ids") {
    // Daily fixed windows are just a relabeling of day as window id.
    val fixedS = TestPipeline.fixed(attrib, FixedWindows.Daily)
    val manual = TestPipeline.series(
      attrib.groupBy(col("day").cast("long").as("window_id"), col("miner"))
        .agg(count(lit(1)).as("cnt")))
    assert(fixedS.exceptAll(manual).count() === 0L)
  }

  test("overlapping windows are consistent: shared half has identical counts") {
    val n = 200L; val m = 100L
    val assign = SlidingWindows.assign(attrib, n, m, spec.blockCount).cache()
    // Second half of window 0 == first half of window 1 == idx [100, 200).
    val fromW0 = assign.where(col("window_id") === 0L && col("idx") >= 100L)
      .groupBy("miner").count()
    val fromW1 = assign.where(col("window_id") === 1L && col("idx") < 200L)
      .groupBy("miner").count()
    assert(fromW0.exceptAll(fromW1).count() === 0L)
    assert(fromW1.exceptAll(fromW0).count() === 0L)
  }
}
