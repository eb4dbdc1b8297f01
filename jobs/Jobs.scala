package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
import repro.core.Tables
import repro.util.Render

/** Shared spark-submit plumbing for the per-table entrypoints.
  *
  * Every job accepts an optional first argument: a scale factor in (0, 1]
  * applied to both chains (default 1.0 = the paper's full 2019 scale).
  */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  /** The scale factor of the first argument, 1.0 when there is none. */
  def scaleOf(args: Array[String]): Double =
    args.headOption.fold(1.0) { a =>
      a.toDoubleOption.filter(f => f > 0.0 && f <= 1.0).getOrElse(throw new IllegalArgumentException(
        s"bad scale '$a': usage: <job> [scale], with scale a number in (0, 1] (default 1.0)"))
    }

  /** Runs `body` with a session and the scale of `args`; the scale is
    * checked before the session starts, and the session stops either way.
    */
  def run(app: String, args: Array[String])(body: (SparkSession, Double) => Unit): Unit = {
    val f     = scaleOf(args)
    val spark = session(app)
    try body(spark, f) finally spark.stop()
  }

  def spec(base: ChainSpec, scale: Double): ChainSpec =
    if (scale >= 1.0) base else base.scaled(scale)

  def emit(title: String, df: DataFrame): Unit = {
    println(s"\n== $title")
    println(Render.table(df))
  }
}

/** T1 — dataset summary (paper §II-A). */
object T1Dataset {
  def main(args: Array[String]): Unit = Jobs.run("t1-dataset", args) { (spark, f) =>
    val chains = Seq(Jobs.spec(ChainParams.btc2019, f), Jobs.spec(ChainParams.eth2019, f))
      .map(s => s -> BlockGenerator.attributions(spark, s))
    Jobs.emit("T1 dataset summary", Tables.t1Dataset(chains))
  }
}

/** T2 — Bitcoin fixed-window metric summary (paper Figs. 1–3). */
object T2FixedBitcoin {
  def main(args: Array[String]): Unit = Jobs.run("t2-fixed-btc", args) { (spark, f) =>
    val s = Jobs.spec(ChainParams.btc2019, f)
    Jobs.emit("T2 Bitcoin fixed windows",
      Tables.fixedSummary(s.name, BlockGenerator.attributions(spark, s)))
  }
}

/** T3 — Ethereum fixed-window metric summary (paper Figs. 4–6). */
object T3FixedEthereum {
  def main(args: Array[String]): Unit = Jobs.run("t3-fixed-eth", args) { (spark, f) =>
    val s = Jobs.spec(ChainParams.eth2019, f)
    Jobs.emit("T3 Ethereum fixed windows",
      Tables.fixedSummary(s.name, BlockGenerator.attributions(spark, s)))
  }
}

/** T4 — sliding-window averages and result counts (paper §III-B, Eq. 5). */
object T4SlidingAverages {
  def main(args: Array[String]): Unit = Jobs.run("t4-sliding", args) { (spark, f) =>
    for (base <- Seq(ChainParams.btc2019, ChainParams.eth2019)) {
      val s = Jobs.spec(base, f)
      Jobs.emit(s"T4 sliding windows — ${s.name}",
        Tables.slidingSummary(s, BlockGenerator.attributions(spark, s)))
    }
  }
}

/** T5 — extremes revealed by sliding vs fixed windows (paper Figs. 9/13). */
object T5AnomalyReveal {
  def main(args: Array[String]): Unit = Jobs.run("t5-reveal", args) { (spark, f) =>
    for (base <- Seq(ChainParams.btc2019, ChainParams.eth2019)) {
      val s = Jobs.spec(base, f)
      Jobs.emit(s"T5 fixed vs sliding extremes — ${s.name}",
        Tables.revealSummary(s, BlockGenerator.attributions(spark, s)))
    }
  }
}

/** T6 — the day-14 Bitcoin anomaly case study (paper §II-C-1d). */
object T6Day14Case {
  def main(args: Array[String]): Unit = Jobs.run("t6-day14", args) { (spark, f) =>
    val s = Jobs.spec(ChainParams.btc2019, f)
    Jobs.emit("T6 Bitcoin day-14 case study",
      Tables.day14Case(BlockGenerator.attributions(spark, s)))
  }
}

/** T7 — Bitcoin vs Ethereum comparison (paper §II-C-3). */
object T7Comparison {
  def main(args: Array[String]): Unit = Jobs.run("t7-compare", args) { (spark, f) =>
    val b = Jobs.spec(ChainParams.btc2019, f)
    val e = Jobs.spec(ChainParams.eth2019, f)
    Jobs.emit("T7 Bitcoin vs Ethereum",
      Tables.comparison(
        BlockGenerator.attributions(spark, b),
        BlockGenerator.attributions(spark, e)))
  }
}

/** All tables in one run (convenience entrypoint). */
object RunAll {
  def main(args: Array[String]): Unit = Jobs.run("run-all", args) { (spark, f) =>
    val b = Jobs.spec(ChainParams.btc2019, f)
    val e = Jobs.spec(ChainParams.eth2019, f)
    val ba = BlockGenerator.attributions(spark, b).cache()
    val ea = BlockGenerator.attributions(spark, e).cache()
    Jobs.emit("T1 dataset summary", Tables.t1Dataset(Seq(b -> ba, e -> ea)))
    Jobs.emit("T2 Bitcoin fixed windows", Tables.fixedSummary(b.name, ba))
    Jobs.emit("T3 Ethereum fixed windows", Tables.fixedSummary(e.name, ea))
    Jobs.emit("T4 sliding — bitcoin", Tables.slidingSummary(b, ba))
    Jobs.emit("T4 sliding — ethereum", Tables.slidingSummary(e, ea))
    Jobs.emit("T5 reveal — bitcoin", Tables.revealSummary(b, ba))
    Jobs.emit("T5 reveal — ethereum", Tables.revealSummary(e, ea))
    Jobs.emit("T6 day-14 case study", Tables.day14Case(ba))
    Jobs.emit("T7 comparison", Tables.comparison(ba, ea))
  }
}
