package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
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
        attrib.agg(
          countDistinct(col("block_number")).as("blocks"),
          count(lit(1)).as("attributions"),
          countDistinct(col("miner")).as("producers"),
          min("block_number").as("first_block"),
          max("block_number").as("last_block"),
          countDistinct(col("day")).as("days"),
        ).select(lit(spec.name).as("chain"), col("*"))
      }
      .reduce(_ unionByName _)

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
  def slidingSummary(spec: ChainSpec, attrib: DataFrame): DataFrame = {
    val sizes = Seq(("day", spec.slidingDay), ("week", spec.slidingWeek), ("month", spec.slidingMonth))
    sizes
      .map { case (label, n) =>
        val m = math.max(1L, n / 2)
        val s = Pipeline.sliding(attrib, spec, n, m)
        s.agg(
          count(lit(1)).as("windows"),
          avg("gini").as("mean_gini"),
          avg("entropy").as("mean_entropy"),
          avg(col("nakamoto").cast("double")).as("mean_nakamoto"),
        ).select(
          lit(spec.name).as("chain"),
          lit(label).as("window"),
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
  }

  /** T5 — information revealed by sliding vs fixed windows (paper Figs. 9/13
    * vs 2/3): per granularity and metric, the number of measurement results
    * and of z-score extremes under each windowing mode.
    */
  def revealSummary(spec: ChainSpec, attrib: DataFrame, z: Double = 2.0): DataFrame = {
    val modes = Seq(
      ("day", FixedWindows.Daily, spec.slidingDay),
      ("week", FixedWindows.Weekly, spec.slidingWeek),
      ("month", FixedWindows.Monthly, spec.slidingMonth),
    )
    val spark = attrib.sparkSession
    import spark.implicits._
    val series = modes.map { case (label, g, n) =>
      (label, Pipeline.fixed(attrib, g).cache(), Pipeline.sliding(attrib, spec, n).cache())
    }
    // The report rows are local, so the cached series can go once they exist.
    try {
      val rows = for {
        (label, fixedS, slidingS) <- series
        metric <- Seq("gini", "entropy", "nakamoto")
      } yield (
        spec.name,
        label,
        metric,
        fixedS.count(),
        Anomaly.countExtremes(fixedS, metric, z),
        slidingS.count(),
        Anomaly.countExtremes(slidingS, metric, z),
      )
      rows.toDF("chain", "granularity", "metric",
                "results_fixed", "extremes_fixed", "results_sliding", "extremes_sliding")
    } finally series.foreach { case (_, fixedS, slidingS) => fixedS.unpersist(); slidingS.unpersist() }
  }

  /** T6 — the day-14 Bitcoin case study (paper §II-C-1d): daily metrics for
    * days 12–16 plus the all-year daily mean, with true block counts (an
    * anomalous day has far more attributions than blocks).
    */
  def day14Case(attrib: DataFrame): DataFrame = {
    val daily = Pipeline.fixed(attrib, FixedWindows.Daily)
    val blocksPerDay = attrib
      .groupBy(col("day").cast("long").as("window_id"))
      .agg(countDistinct(col("block_number")).as("blocks"))
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
    val spark = btcAttrib.sparkSession
    import spark.implicits._
    val rows = for {
      g      <- FixedWindows.all
      btc     = Pipeline.summary(Pipeline.fixed(btcAttrib, g)).collect()
      eth     = Pipeline.summary(Pipeline.fixed(ethAttrib, g)).collect()
      metric <- Seq("gini", "entropy", "nakamoto")
    } yield {
      def stat(rowsArr: Array[org.apache.spark.sql.Row], col: String): Double = {
        val r = rowsArr.find(_.getString(0) == metric).get
        r.getDouble(r.fieldIndex(col))
      }
      val (bMean, eMean) = (stat(btc, "mean"), stat(eth, "mean"))
      val (bStd, eStd)   = (stat(btc, "stddev"), stat(eth, "stddev"))
      val moreDecentralized =
        if (metric == "gini") { if (bMean < eMean) "bitcoin" else "ethereum" }
        else { if (bMean > eMean) "bitcoin" else "ethereum" }
      val moreStable = if (bStd < eStd) "bitcoin" else "ethereum"
      (g.name, metric, bMean, eMean, moreDecentralized, bStd, eStd, moreStable)
    }
    rows.toDF("granularity", "metric", "btc_mean", "eth_mean", "more_decentralized",
              "btc_stddev", "eth_stddev", "more_stable")
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
