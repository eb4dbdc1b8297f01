package repro.bench

import java.io.{File, PrintWriter}
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}

/** Shared full-scale data for the bench suites.
  *
  * Both chains are generated once per JVM at the paper's exact 2019 scale
  * (BTC 54,231 blocks; ETH 2,204,650 blocks) and cached; suites run
  * sequentially in one forked JVM so the cache is reused.
  */
object BenchData {
  val btcSpec: ChainSpec = ChainParams.btc2019
  val ethSpec: ChainSpec = ChainParams.eth2019

  private val cache = mutable.Map.empty[ChainSpec, DataFrame]

  /** The chain's attribution table, generated (seed 2019), cached and
    * materialized on first use.
    */
  def attrib(spark: SparkSession, spec: ChainSpec): DataFrame = synchronized {
    cache.getOrElseUpdate(spec, {
      val df = BlockGenerator.attributions(spark, spec, seed = 2019L).cache()
      df.count()
      df
    })
  }

  /** Repo root: the forked bench JVM starts in bench/, so walk up to the
    * first ancestor holding build.sbt.
    */
  private def repoRoot: File = {
    var d = new File(sys.props("user.dir")).getAbsoluteFile
    while (!new File(d, "build.sbt").exists() && d.getParentFile != null) d = d.getParentFile
    d
  }

  /** Append a rendered table to <repo>/bench/results/<name>.txt (and stdout). */
  def report(name: String, content: String): Unit = {
    val dir = new File(repoRoot, "bench/results")
    dir.mkdirs()
    val pw = new PrintWriter(new File(dir, s"$name.txt"))
    try pw.println(content) finally pw.close()
    println(s"\n===== $name =====")
    println(content)
  }
}

/** Base trait for bench suites: the shared SparkSession plus report helpers. */
trait BenchSpec extends SparkSpec {
  def btcAttrib: DataFrame = BenchData.attrib(spark, BenchData.btcSpec)
  def ethAttrib: DataFrame = BenchData.attrib(spark, BenchData.ethSpec)
}
