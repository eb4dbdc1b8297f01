package perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.CachedData
import org.apache.spark.storage.RDDBlockId

/** Work attributed to one Spark job group. */
final case class Counts(
    jobsStarted: Long = 0L,
    jobsEnded: Long = 0L,
    tasks: Long = 0L,
    runMs: Long = 0L,
    shuffleRecords: Long = 0L,
    emptyTasks: Long = 0L,
) {
  def -(o: Counts): Counts = Counts(
    jobsStarted - o.jobsStarted, jobsEnded - o.jobsEnded, tasks - o.tasks,
    runMs - o.runMs, shuffleRecords - o.shuffleRecords, emptyTasks - o.emptyTasks)
}

/** A `SparkListener` that attributes jobs, tasks, task run time and shuffle
  * writes to the job group they ran under, and tracks the memory held by
  * cached RDD blocks (current and peak).
  *
  * Listener events arrive asynchronously. [[flush]] runs a one-task marker
  * job in a group of its own and waits until the listener has seen it end;
  * the bus delivers events in order, so every job started before the marker
  * has been counted by then.
  */
final class Probe extends SparkListener {
  import Probe.JobGroup
  private val groups     = mutable.Map.empty[String, Counts]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup   = mutable.Map.empty[Int, String]
  private val blockMem   = mutable.Map.empty[RDDBlockId, Long]
  private var cached     = 0L
  private var peak       = 0L
  private var markers    = 0

  private def groupOf(p: java.util.Properties): String =
    Option(p).flatMap(x => Option(x.getProperty(JobGroup))).getOrElse("")

  private def update(g: String)(f: Counts => Counts): Unit =
    groups(g) = f(groups.getOrElse(g, Counts()))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    jobGroup(e.jobId) = g
    update(g)(c => c.copy(jobsStarted = c.jobsStarted + 1))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.remove(e.jobId).foreach(g => update(g)(c => c.copy(jobsEnded = c.jobsEnded + 1)))
    notifyAll()
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageGroup(e.stageInfo.stageId) = groupOf(e.properties)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    update(stageGroup.getOrElse(e.stageId, "")) { c =>
      if (m == null) c.copy(tasks = c.tasks + 1)
      else {
        val read = m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
        c.copy(
          tasks = c.tasks + 1,
          runMs = c.runMs + m.executorRunTime,
          shuffleRecords = c.shuffleRecords + m.shuffleWriteMetrics.recordsWritten,
          emptyTasks = c.emptyTasks + (if (read == 0L) 1L else 0L),
        )
      }
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    e.blockUpdatedInfo.blockId match {
      case id: RDDBlockId =>
        val mem = e.blockUpdatedInfo.memSize
        cached += mem - blockMem.getOrElse(id, 0L)
        if (mem > 0L) blockMem(id) = mem else blockMem.remove(id)
        peak = math.max(peak, cached)
      case _ => ()
    }
  }

  /** Counts of a job group so far (call after [[flush]]). */
  def counts(group: String): Counts = synchronized(groups.getOrElse(group, Counts()))

  /** Bytes currently held by cached RDD blocks. */
  def cachedBytes: Long = synchronized(cached)

  /** Highest [[cachedBytes]] since the last [[resetPeak]]. */
  def peakBytes: Long = synchronized(peak)

  def resetPeak(): Unit = synchronized { peak = cached }

  /** Bytes held by the blocks of the given RDDs. */
  def bytesOf(rddIds: Set[Int]): Long =
    synchronized(blockMem.iterator.collect { case (id, b) if rddIds(id.rddId) => b }.sum)

  /** Ids of the RDDs that currently hold cached blocks. */
  def cachedRdds: Set[Int] = synchronized(blockMem.keysIterator.map(_.rddId).toSet)

  /** Wait until every event posted before this call has been delivered,
    * then check that every job that started has also ended.
    */
  def flush(sc: SparkContext): Unit = {
    val group = synchronized { markers += 1; s"perfbench.flush.$markers" }
    val previous = Option(sc.getLocalProperty(JobGroup))
    sc.setJobGroup(group, "listener flush", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally previous.fold(sc.clearJobGroup())(g => sc.setJobGroup(g, g, interruptOnCancel = false))
    val deadline = System.nanoTime + 60L * 1000000000L
    synchronized {
      def settled = groups.get(group).exists(_.jobsEnded == 1L) &&
        groups.valuesIterator.forall(c => c.jobsStarted == c.jobsEnded)
      while (!settled) {
        val left = (deadline - System.nanoTime) / 1000000L
        if (left <= 0L) throw new IllegalStateException("listener did not see every job end")
        wait(left)
      }
    }
  }
}

object Probe {

  /** The local property that carries a job's group (`SparkContext.setJobGroup`). */
  val JobGroup = "spark.jobGroup.id"

  /** Run `body` with every job it starts under `group`. */
  def inGroup[A](sc: SparkContext, group: String)(body: => A): A = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }

  /** Uncache every cached plan except those of `keep`. Tables that cache
    * intermediate series and never unpersist them would otherwise serve
    * the next pass from memory.
    */
  def dropCachesExcept(spark: SparkSession, keep: Seq[DataFrame]): Unit = {
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    val cm = classic.sharedState.cacheManager
    val kept = keep.flatMap(d => cm.lookupCachedData(d.asInstanceOf[org.apache.spark.sql.classic.Dataset[_]]))
      .map(_.plan)
    // CacheManager lists its entries only privately; read the field.
    val field = cm.getClass.getDeclaredField("cachedData")
    field.setAccessible(true)
    val drop = field.get(cm).asInstanceOf[IndexedSeq[CachedData]].filterNot(c => kept.exists(_ eq c.plan))
    drop.foreach(c => cm.uncacheQuery(classic, c.plan, false, true))
  }
}
