package repro.jobs

import scala.io.{Codec, Source}
import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
import repro.util.Render

/** The entry point's session, its Spark jobs per rendered table and its printed text. */
class RunSpec extends SparkSpec {

  test("the suites run in the entry point's session: Jobs.session changes none of its settings, AQE off") {
    // The app name is the builder's argument, not a setting: getOrCreate re-applies it too.
    def settings = spark.conf.getAll - "spark.app.name"
    val before = settings
    Jobs.session("x")
    assert(settings === before)
    assert(spark.conf.get("spark.sql.adaptive.enabled") === "false")
  }

  /** `Run`'s chains at `scale`, generated, cached and counted, for `body`; unpersisted after. */
  private def withChains[A](scale: Double)(body: Run.Chains => A): A = {
    val chains: Map[ChainSpec, (ChainSpec, DataFrame)] = Seq(ChainParams.btc2019, ChainParams.eth2019).map { base =>
      val s = base.scaled(scale)
      base -> (s -> BlockGenerator.attributions(spark, s).cache())
    }.toMap
    chains.values.foreach(_._2.count())
    try body(chains) finally chains.values.foreach(_._2.unpersist())
  }

  test("Run all renders each of its 9 outputs in one Spark job") {
    withChains(0.01) { chains =>
      // A table's jobs include building its outputs, in case a builder collects a query of its own.
      val jobs = Run.tables.map { case (name, outputs) =>
        var rendered = 0
        val n = jobsRun(outputs(chains).foreach { case (_, df) => Render.table(df); rendered += 1 })
        (name, rendered, n)
      }
      info(s"Spark jobs per table: ${jobs.map { case (t, k, n) => s"$t $n for $k outputs" }.mkString(", ")}")
      assert(jobs.map(_._2).sum === 9, jobs)
      for ((name, k, n) <- jobs) assert(n === k.toLong, s"$name: $n Spark jobs for $k outputs; all: $jobs")
    }
  }

  test("Run all 0.01 prints the committed behaviour contract, byte for byte") {
    val want = Source.fromResource("run-all-0.01.txt")(Codec.UTF8).mkString
    val got  = withChains(0.01)(Run.render(Run.tables, _).map(_ + "\n").mkString)
    assert(got === want)
  }
}
