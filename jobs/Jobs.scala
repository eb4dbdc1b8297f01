package repro.jobs

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
import repro.core.Tables
import repro.util.Render

/** Spark session and argument plumbing of the entry point. */
object Jobs {

  /** The one session definition, used by `Run`, the benchmark and the tests.
    *
    * Adaptive query execution is off. The report tables shuffle nothing, but
    * the Spark reference paths do (the per-block window counts, the summary
    * and z-test of `Pipeline` and `Anomaly`). AQE would submit each of their
    * shuffle stages as a Spark job of its own and re-plan between them, so the
    * plans and job counts the tests inspect would depend on run-time
    * statistics. Without it, each query runs the plan it was given.
    */
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()

  /** The scale factor given by `arg`, 1.0 when there is none. */
  def scaleOf(arg: Option[String]): Double =
    arg.fold(1.0) { a =>
      a.toDoubleOption.filter(f => f > 0.0 && f <= 1.0)
        .getOrElse(throw new IllegalArgumentException(s"bad scale '$a': ${Run.usage}"))
    }
}

/** The one entry point: `Run <T1..T7|all> [scale]` renders the named report
  * table, or all of them in order, with both chains scaled by a factor in
  * (0, 1] (default 1.0 = the paper's full 2019 scale). Each chain a run reads
  * is generated and cached once.
  */
object Run {
  val usage = "usage: Run <T1..T7|all> [scale], with scale a number in (0, 1] (default 1.0)"

  /** A run's chains: base spec → (scaled spec, attribution table). */
  type Chains = ChainSpec => (ChainSpec, DataFrame)

  /** A report table: its name and its titled outputs over a run's chains. */
  type Table = (String, Chains => Seq[(String, DataFrame)])

  private val (btc, eth) = (ChainParams.btc2019, ChainParams.eth2019)

  private def perChain(title: String, build: (ChainSpec, DataFrame) => DataFrame)(c: Chains) =
    Seq(btc, eth).map(c).map { case (s, a) => s"$title — ${s.name}" -> build(s, a) }

  /** Report tables (DESIGN.md §4) in order: name → titled outputs. */
  val tables: Seq[Table] = Seq(
    "T1" -> (c => Seq("T1 dataset summary" -> Tables.t1Dataset(Seq(c(btc), c(eth))))),
    "T2" -> (c => Seq("T2 Bitcoin fixed windows" -> Tables.fixedSummary(btc.name, c(btc)._2))),
    "T3" -> (c => Seq("T3 Ethereum fixed windows" -> Tables.fixedSummary(eth.name, c(eth)._2))),
    "T4" -> perChain("T4 sliding windows", Tables.slidingSummary),
    "T5" -> perChain("T5 fixed vs sliding extremes", Tables.revealSummary),
    "T6" -> (c => Seq("T6 Bitcoin day-14 case study" -> Tables.day14Case(c(btc)._2))),
    "T7" -> (c => Seq("T7 Bitcoin vs Ethereum" -> Tables.comparison(c(btc)._2, c(eth)._2))),
  )

  /** The tables and scale `args` ask for; throws a usage error otherwise. */
  def parse(args: Array[String]): (Seq[Table], Double) = {
    val selected = tables.filter(t => args.headOption.exists(a => a == t._1 || a == "all"))
    require(selected.nonEmpty && args.length <= 2, s"bad arguments '${args.mkString(" ")}': $usage")
    (selected, Jobs.scaleOf(args.lift(1)))
  }

  def main(args: Array[String]): Unit = {
    val (selected, scale) = parse(args)
    val spark = Jobs.session(s"run-${args.head}")
    val cache = mutable.Map.empty[ChainSpec, (ChainSpec, DataFrame)]
    val chains: Chains = base => cache.getOrElseUpdate(base, {
      val s = base.scaled(scale)
      s -> BlockGenerator.attributions(spark, s).cache()
    })
    try render(selected, chains).foreach(println)
    finally spark.stop()
  }

  /** The printed blocks of `selected` over `chains`, in order: each output's title, then its table. */
  def render(selected: Seq[Table], chains: Chains): Iterator[String] =
    for ((_, outputs) <- selected.iterator; (title, df) <- outputs(chains).iterator) yield s"\n== $title\n${Render.table(df)}"
}
