package repro.chain

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Deterministic synthetic block → producer attribution generator.
  *
  * Output schema (one row per attribution; anomalous blocks have one row per
  * one-off producer, normal blocks exactly one row):
  *
  *   - `block_number: Long` — absolute block number
  *   - `idx: Long`          — 0-based position within the year (block_number − firstBlock)
  *   - `day: Int`           — 1-based day-of-year of the block's timestamp
  *   - `miner: String`      — producer identity
  *   - `week: Int`          — 1-based 7-day bucket, week = (day−1)/7 + 1 (week 53 partial)
  *   - `month: Int`         — calendar month of 2019
  *
  * The table holds only the columns the dataflow reads. A block's timestamp
  * (seconds since the year start, uniform spacing) is not stored: it is
  * `ChainSpec.tsOf(idx)`, and `day` is computed from the same term.
  *
  * Sampling is driven by `xxhash64(block_number, seed)` rather than `rand()`
  * so rows are deterministic in (spec, seed) regardless of partitioning.
  */
object BlockGenerator {

  /** Modulus used to fold the 64-bit hash into a uniform in [0, 1). */
  private val HashMod = 1000000007L

  /** Inverse-CDF categorical sampler over a regime's miners. */
  private[chain] def pickerFor(regime: Regime): UserDefinedFunction = {
    val (cdf, names) = regime.samplingArrays
    udf { (u: Double) =>
      // Upper-bound binary search: smallest i with u < cdf(i).
      var lo = 0
      var hi = cdf.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (u < cdf(mid)) hi = mid else lo = mid + 1
      }
      names(lo)
    }
  }

  /** Full attribution table for a chain spec: one projection over one
    * `spark.range(blockCount)` scan, so the table has `spark.range`'s
    * partitions. Each row's producers are chosen per row: an anomaly block
    * (the paper's multi-coinbase-address blocks) gets its one-off producers
    * `anon_<block>_1..n`, where n sums the `nProducers` of every anomaly on
    * that block; any other block gets one miner sampled from the regime
    * covering its day.
    */
  def attributions(spark: SparkSession, spec: ChainSpec, seed: Long = 2019L): DataFrame = {
    val oneOffs = spec.anomalies.groupMapReduce(a => spec.blockAtDay(a.day, a.frac))(_.nProducers)(_ + _)
      .map { case (bn, n) => bn -> (1 to n).map(j => s"anon_${bn}_$j") }
    val (id, bn, day) = (col("id"), col("block_number"), col("day"))
    val u = pmod(xxhash64(bn, lit(seed)), lit(HashMod)).cast(DoubleType) / lit(HashMod.toDouble)
    val sampled = coalesce(spec.regimes.map(r => when(day.between(r.firstDay, r.lastDay), pickerFor(r)(u))): _*)
    spark
      .range(spec.blockCount)
      .select((id + lit(spec.firstBlock)).as("block_number"), id.as("idx"),
        ((floor(id.cast(DoubleType) * lit(spec.secondsPerBlock)).cast(LongType) / lit(86400L))
          .cast(IntegerType) + lit(1)).as("day"))
      .withColumn("miner", explode(coalesce(try_element_at(typedLit(oneOffs), bn), array(sampled))))
      .withColumn("week", ((day - 1) / lit(7)).cast(IntegerType) + lit(1))
      .withColumn("month", month(date_add(to_date(lit("2019-01-01")), day - 1)))
  }
}
