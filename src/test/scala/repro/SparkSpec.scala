package repro

import java.util.UUID
import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.Jobs

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `df` once and returns the shuffle exchanges its executed plan ran. */
  def executedShuffles(df: DataFrame): Seq[ShuffleExchangeExec] =
    plansRun(df.collect()).flatMap(_.collect { case e: ShuffleExchangeExec => e })

  /** The executed plans of the queries `body` runs (a report table may
    * collect a query of its own before it returns). Query events arrive
    * asynchronously, so the events of earlier queries are drained before the
    * listener is registered.
    */
  def plansRun(body: => Any): Seq[SparkPlan] = {
    drained(())
    val plans = new ConcurrentLinkedQueue[SparkPlan]
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = plans.add(qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try drained(body) finally spark.listenerManager.unregister(listener)
    plans.asScala.toSeq
  }

  /** Number of Spark jobs `body` starts, counted under a job group of its own. */
  def jobsRun(body: => Any): Long = {
    val started = new AtomicLong
    drained(body, () => started.incrementAndGet())
    started.get
  }

  /** The tasks that the jobs `body` starts run, and how many of them return a result to the
    * driver: a result task's value rather than a shuffle map task's output.
    */
  def tasksRun(body: => Any): (Long, Long) = {
    val (tasks, results) = (new AtomicLong, new AtomicLong)
    drained(body, onTask = e => { tasks.incrementAndGet(); if (e.taskType == "ResultTask") results.incrementAndGet() })
    (tasks.get, results.get)
  }

  /** Runs `body` under a job group of its own, calling `onJob` for each job it
    * starts and `onTask` for each task of those jobs that ends, and returns once
    * every listener on the shared queue has seen the events `body` caused. They
    * arrive asynchronously but in order, so that holds once a marker job
    * submitted after `body` has been seen.
    */
  private def drained(body: => Any, onJob: () => Unit = () => (), onTask: SparkListenerTaskEnd => Unit = _ => ()): Unit = {
    val sc = spark.sparkContext
    val group = s"counted-${UUID.randomUUID()}"
    val seen = new CountDownLatch(1)
    val listener = new SparkListener {
      // Events reach a listener on one thread, so the stages need no lock.
      private val stages = mutable.Set.empty[Int]
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))) match {
          case Some(`group`)                => stages ++= e.stageIds; onJob()
          case Some(g) if g == s"$group.end" => seen.countDown()
          case _                            => ()
        }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (stages(e.stageId)) onTask(e)
    }
    def inGroup(g: String)(f: => Any): Unit = {
      sc.setJobGroup(g, g)
      try f finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      inGroup(group)(body)
      inGroup(s"$group.end")(sc.parallelize(Seq(1), 1).count())
      assert(seen.await(60, TimeUnit.SECONDS), "the listener never saw the marker job")
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  /** The entry point's session. `Jobs.session` re-applies its SQL settings
    * to a live session (`BenchmarkApiSpec` calls it), so a builder of the
    * tests' own would make the settings a suite runs with depend on suite order.
    */
  lazy val shared: SparkSession = {
    val s = Jobs.session("repro")
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
