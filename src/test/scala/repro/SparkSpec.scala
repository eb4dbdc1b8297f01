package repro

import java.util.UUID
import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.metric.SQLShuffleWriteMetricsReporter
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so the join plans of the report
  * tables run their shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `df` once and returns the shuffle exchanges its executed plan ran,
    * looking inside adaptive query stages.
    */
  def executedShuffles(df: DataFrame): Seq[ShuffleExchangeExec] = {
    df.collect()
    SparkSpec.Plans.collect(df.queryExecution.executedPlan) { case e: ShuffleExchangeExec => e }
  }

  /** Number of Spark jobs `body` starts, counted under a job group of its
    * own. Listener events arrive asynchronously but in order, so the count is
    * read only once the listener has seen a marker job submitted after `body`.
    */
  def jobsRun(body: => Any): Long = {
    val sc = spark.sparkContext
    val group = s"counted-${UUID.randomUUID()}"
    val started = new AtomicLong
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))) match {
          case Some(`group`)                => started.incrementAndGet()
          case Some(g) if g == s"$group.end" => drained.countDown()
          case _                            => ()
        }
    }
    def inGroup(g: String)(f: => Any): Unit = {
      sc.setJobGroup(g, g)
      try f finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      inGroup(group)(body)
      inGroup(s"$group.end")(sc.parallelize(Seq(1), 1).count())
      assert(drained.await(60, TimeUnit.SECONDS), "the listener never saw the marker job")
      started.get
    } finally sc.removeSparkListener(listener)
  }

  /** Records written by a shuffle exchange that has run. */
  def recordsWritten(e: ShuffleExchangeExec): Long =
    e.metrics(SQLShuffleWriteMetricsReporter.SHUFFLE_RECORDS_WRITTEN).value
}

object SparkSpec {
  private object Plans extends AdaptiveSparkPlanHelper

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
