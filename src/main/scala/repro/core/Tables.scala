package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.chain.ChainSpec

/** One function per reproduced evaluation table (T1–T7; see DESIGN.md §4 for
  * the paper-source mapping). Each takes attribution tables and returns a
  * small report DataFrame.
  */
object Tables {

  /** T1 — dataset summary (paper §II-A): block/attribution/producer counts
    * and block-number range per chain.
    */
  def t1Dataset(chains: Seq[(ChainSpec, DataFrame)]): DataFrame =
    chains
      .map { case (spec, attrib) =>
        // One row per block bucket: its block bitmap, producer set and day set.
        val perBucket = attrib
          .groupBy(bitmap_bucket_number(col("block_number")))
          .agg(
            blockBits.as("bits"),
            count(lit(1)).as("attributions"),
            collect_set("miner").as("miners"),
            min("block_number").as("first_block"),
            max("block_number").as("last_block"),
            collect_set("day").as("days"),
          )
        def unionSize(c: String) = size(array_distinct(flatten(collect_list(c)))).cast("long")
        perBucket.agg(
          coalesce(sum(bitmap_count(col("bits"))), lit(0L)).as("blocks"),
          coalesce(sum("attributions"), lit(0L)).as("attributions"),
          unionSize("miners").as("producers"),
          min("first_block").as("first_block"),
          max("last_block").as("last_block"),
          unionSize("days").as("days"),
        ).select(lit(spec.name).as("chain"), col("*"))
      }
      .reduce(_ unionByName _)

  /** Distinct `block_number`s of a group as a bitmap over its block bucket
    * (`bitmap_bucket_number`): `bitmap_count` of it is the exact number of
    * distinct blocks, because (bucket, bit position) identifies a block.
    * Grouping by the bucket lets each map partition ship one 4 KB bitmap per
    * group and bucket instead of one record per distinct block.
    */
  private val blockBits: Column = bitmap_construct_agg(bitmap_bit_position(col("block_number")))

  /** T2 / T3 — fixed-window metric summaries (paper Figs. 1–3 / 4–6): for
    * each granularity, mean/stddev/min/max of each metric across windows.
    */
  def fixedSummary(chain: String, attrib: DataFrame): DataFrame =
    FixedWindows.all
      .map { g =>
        Pipeline
          .summary(Pipeline.fixed(attrib, g))
          .select(lit(chain).as("chain"), lit(g.name).as("granularity"), col("*"))
      }
      .reduce(_ unionByName _)

  /** T4 — sliding-window summary (paper §III-B in-text averages and Eq. 5
    * result counts): per chain and window size, L plus each metric's mean.
    */
  def slidingSummary(spec: ChainSpec, attrib: DataFrame): DataFrame =
    FixedWindows.all
      .map { g =>
        val n = g.slidingSize(spec)
        val m = SlidingWindows.paperStep(n)
        Pipeline.sliding(attrib, spec, n, m).agg(
          count(lit(1)).as("windows"),
          avg("gini").as("mean_gini"),
          avg("entropy").as("mean_entropy"),
          avg(col("nakamoto").cast("double")).as("mean_nakamoto"),
        ).select(
          lit(spec.name).as("chain"),
          lit(g.name).as("window"),
          lit(n).as("n_blocks"),
          lit(m).as("step"),
          lit(SlidingWindows.numWindows(spec.blockCount, n, m)).as("expected_L"),
          col("windows"),
          col("mean_gini"),
          col("mean_entropy"),
          col("mean_nakamoto"),
        )
      }
      .reduce(_ unionByName _)

  /** T5 — information revealed by sliding vs fixed windows (paper Figs. 9/13
    * vs 2/3): per granularity and metric, the number of measurement results
    * and of z-score extremes under each windowing mode.
    */
  def revealSummary(spec: ChainSpec, attrib: DataFrame, z: Double = 2.0): DataFrame = {
    // One row per (granularity, mode) series, all six collected by a single action.
    val counts = (for {
      g         <- FixedWindows.all
      (mode, s) <- Seq("fixed" -> Pipeline.fixed(attrib, g), "sliding" -> Pipeline.sliding(attrib, spec, g.slidingSize(spec)))
    } yield Anomaly.extremeCounts(s, z).select(lit(g.name).as("granularity"), lit(mode).as("mode"), col("*")))
      .reduce(_ unionByName _).collect().map(r => (r.getString(0), r.getString(1)) -> r).toMap
    val spark = attrib.sparkSession
    import spark.implicits._
    val rows = for (g <- FixedWindows.all; metric <- Metrics.names) yield {
      val (f, s) = (counts((g.name, "fixed")), counts((g.name, "sliding")))
      (spec.name, g.name, metric,
       f.getAs[Long]("results"), f.getAs[Long](metric), s.getAs[Long]("results"), s.getAs[Long](metric))
    }
    rows.toDF("chain", "granularity", "metric",
              "results_fixed", "extremes_fixed", "results_sliding", "extremes_sliding")
  }

  /** T6 — the day-14 Bitcoin case study (paper §II-C-1d): daily metrics for
    * days 12–16 plus the all-year daily mean, with true block counts (an
    * anomalous day has far more attributions than blocks).
    */
  def day14Case(attrib: DataFrame): DataFrame = {
    val daily = Pipeline.fixed(attrib, FixedWindows.Daily)
    val blocksPerDay = attrib
      .groupBy(col("day").cast("long").as("window_id"), bitmap_bucket_number(col("block_number")))
      .agg(bitmap_count(blockBits).as("blocks"))
      .groupBy("window_id")
      .agg(sum("blocks").as("blocks"))
    val detail = daily
      .join(blocksPerDay, Seq("window_id"))
      .where(col("window_id").between(12, 16))
      .select(
        concat(lit("day_"), col("window_id")).as("label"),
        col("blocks"), col("producers"), col("attributions"),
        col("gini"), col("entropy"), col("nakamoto").cast("long").as("nakamoto"),
      )
    val meanRow = daily
      .join(blocksPerDay, Seq("window_id"))
      .agg(
        avg("blocks").cast("long").as("blocks"),
        avg("producers").cast("long").as("producers"),
        avg("attributions").cast("long").as("attributions"),
        avg("gini").as("gini"),
        avg("entropy").as("entropy"),
        avg(col("nakamoto").cast("double")).cast("long").as("nakamoto"),
      )
      .select(lit("daily_mean").as("label"), col("*"))
    detail.unionByName(meanRow)
  }

  /** T7 — Bitcoin vs Ethereum (paper §II-C-3): per granularity and metric,
    * each chain's mean and stddev plus which chain is more decentralized and
    * which is more stable. Lower Gini, higher entropy and higher Nakamoto
    * all mean *more* decentralized; lower stddev means more stable.
    */
  def comparison(btcAttrib: DataFrame, ethAttrib: DataFrame): DataFrame = {
    def side(chain: String, p: String, attrib: DataFrame) = fixedSummary(chain, attrib)
      .select(col("granularity"), col("metric"), col("mean").as(s"${p}_mean"), col("stddev").as(s"${p}_stddev"))
    def winner(btcWins: Column) = when(btcWins, "bitcoin").otherwise("ethereum")
    def rank(c: String, values: Seq[String]) = array_position(array(values.map(lit): _*), col(c))
    val (bMean, eMean) = (col("btc_mean"), col("eth_mean"))
    side("bitcoin", "btc", btcAttrib)
      .join(side("ethereum", "eth", ethAttrib), Seq("granularity", "metric"))
      .orderBy(rank("granularity", FixedWindows.all.map(_.name)), rank("metric", Metrics.names))
      .select(col("granularity"), col("metric"), bMean, eMean,
        winner(when(col("metric") === "gini", bMean < eMean).otherwise(bMean > eMean)).as("more_decentralized"),
        col("btc_stddev"), col("eth_stddev"), winner(col("btc_stddev") < col("eth_stddev")).as("more_stable"))
  }

  /** Top-k producer shares within one window (paper Fig. 7's pie charts). */
  def topShares(counts: DataFrame, windowId: Long, k: Int): DataFrame = {
    val w = counts.where(col("window_id") === windowId)
    val tot = w.agg(sum("cnt")).first().getLong(0)
    w.select(col("miner"), col("cnt"), (col("cnt").cast("double") / lit(tot.toDouble)).as("share"))
      .orderBy(col("cnt").desc, col("miner"))
      .limit(k)
  }
}
