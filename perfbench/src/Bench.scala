package perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
import repro.core.{Anomaly, FixedWindows, Metrics, Pipeline, SlidingWindows, Tables}
import repro.jobs.Jobs
import repro.util.Render

/** One report table a workload emits: its name (as under `bench/results`),
  * how the program builds it, and how the reference path builds it.
  */
final case class Output(
    name: String,
    build: Map[String, DataFrame] => DataFrame,
    reference: Map[String, LocalChain] => Rendered,
)

/** A workload: the chains it caches, the tables one pass emits, and the
  * chains whose daily fixed windows and whose day-sized sliding windows the
  * traced run takes apart layer by layer (the two windowings every fixed and
  * sliding table of the workload starts with; the larger sizes repeat the
  * same calls and would double the traced run).
  */
final case class Workload(
    name: String,
    chains: Seq[ChainSpec],
    outputs: Seq[Output],
    daily: Seq[ChainSpec],
    sliding: Seq[ChainSpec],
)

object Workloads {
  private val btc = ChainParams.btc2019
  private val eth = ChainParams.eth2019

  private val t2 = Output("T2_fixed_bitcoin",
    a => Tables.fixedSummary(btc.name, a(btc.name)), c => Reference.fixedSummary(c(btc.name)))
  private def sliding(s: ChainSpec) = Output(
    s"T4_sliding_${s.name}", a => Tables.slidingSummary(s, a(s.name)), c => Reference.slidingSummary(c(s.name)))
  private val t1 = Output("T1_dataset",
    a => Tables.t1Dataset(Seq(btc -> a(btc.name), eth -> a(eth.name))),
    c => Reference.t1Dataset(Seq(c(btc.name), c(eth.name))))
  private val t6 = Output("T6_day14_case", a => Tables.day14Case(a(btc.name)), c => Reference.day14Case(c(btc.name)))

  val all: Seq[Workload] = Seq(
    Workload("btc-2019", Seq(btc), Seq(t2, sliding(btc), t6), daily = Seq(btc), sliding = Seq(btc)),
    Workload("eth-2019", Seq(btc, eth), Seq(sliding(eth), t1), daily = Nil, sliding = Seq(eth)),
  )

  /** Every table some workload emits; the traced run names a metric for each. */
  val outputs: Seq[String] = all.flatMap(_.outputs.map(_.name)).distinct
}

/** The attribution tables of one workload, generated, cached and materialized
  * in a fresh SparkSession.
  */
final class Chains(val spark: SparkSession, val probe: Probe, val attribs: Map[String, DataFrame],
                   val rows: Long, val generateMs: Double) {
  val attribRdds: Set[Int] = probe.cachedRdds
  val attribBytes: Long = probe.cachedBytes
  def sc = spark.sparkContext
}

/** Result of one pass over a workload's tables. */
final case class Pass(wallS: Double, jobs: Long, shuffleRecords: Long, peakBytes: Long, retainedBytes: Long,
                      texts: Seq[(Output, Try[String])])

/** The benchmark: one closed-loop client running a workload's report tables
  * pass after pass, each pass starting after the previous one has collected
  * and rendered every table. See perfbench/README.md.
  */
final class Bench(wl: Workload, seed: Long, cores: Int, root: File) {
  private def now = System.nanoTime
  private def ms(t0: Long) = (now - t0) / 1e6

  var attempted = 0L
  var failed = 0L
  private val problems = mutable.ArrayBuffer.empty[String]
  private def problem(msg: String): Unit = { problems += msg; log(msg) }
  private val started = now
  private def log(msg: String): Unit = System.err.println(f"perfbench: [${(now - started) / 1e9}%6.1f s] $msg")
  def ok: Boolean = problems.isEmpty

  /** Start a SparkSession through the program's entry point, then generate,
    * cache and materialize the workload's attribution tables.
    */
  def open(): (Chains, Double) = {
    val t0 = now
    val spark = Jobs.session(s"perfbench-${wl.name}")
    val probe = new Probe
    spark.sparkContext.addSparkListener(probe)
    val t1 = now
    val attribs = Probe.inGroup(spark.sparkContext, "chain") {
      wl.chains.map(s => s.name -> BlockGenerator.attributions(spark, s, seed).cache())
    }
    val rows = Probe.inGroup(spark.sparkContext, "chain")(attribs.map(_._2.count()).sum)
    val generateMs = ms(t1)
    val setupS = (now - t0) / 1e9
    probe.flush(spark.sparkContext)
    (new Chains(spark, probe, attribs.toMap, rows, generateMs), setupS)
  }

  /** Reference tables, computed single-threaded from collected rows, and the
    * time the computation took (collection excluded).
    */
  def reference(c: Chains): (Map[String, LocalChain], Map[String, Rendered], Double) = {
    val local = Probe.inGroup(c.sc, "reference.collect") {
      wl.chains.map(s => s.name -> Reference.collect(s, c.attribs(s.name))).toMap
    }
    val t0 = now
    val tables = wl.outputs.map(o => o.name -> o.reference(local)).toMap
    val computeMs = ms(t0)
    log(f"reference tables computed in $computeMs%.1f ms")
    (local, tables, computeMs)
  }

  private def expected(name: String): Option[Rendered] =
    if (seed != 2019L) None
    else {
      val f = new File(root, s"bench/results/$name.txt")
      if (!f.isFile) { problem(s"missing ${f.getPath}"); None }
      else Some(Check.parse(new String(Files.readAllBytes(f.toPath), StandardCharsets.UTF_8)))
    }

  private lazy val committed: Map[String, Option[Rendered]] =
    wl.outputs.map(o => o.name -> expected(o.name)).toMap

  /** Check one table output against `bench/results` (seed 2019 only) and
    * against the reference path; count it as attempted, and as failed when
    * it threw or differed.
    */
  def check(o: Output, text: Try[String], refs: Map[String, Rendered]): Unit = {
    attempted += 1
    val why = text match {
      case Failure(e) => Some(s"threw $e")
      case Success(t) =>
        val got = Check.parse(t)
        committed(o.name).flatMap(Check.diff(got, _, slack = false).map("bench/results: " + _))
          .orElse(Check.diff(got, refs(o.name), slack = true).map("reference: " + _))
    }
    why.foreach { w => failed += 1; problem(s"${o.name} ${w}") }
  }

  /** One pass: build, collect and render every table of the workload. Then
    * drop every cache the pass left behind, so the next pass starts from the
    * attribution tables alone. Untraced passes run under one job group;
    * traced ones under one group per table.
    */
  def pass(c: Chains, traced: Boolean, tableMs: mutable.Map[String, Double]): Pass = {
    def group(o: Output) = if (traced) s"tables.${o.name}" else "pass"
    val groups = wl.outputs.map(group).distinct
    val before = groups.map(g => g -> c.probe.counts(g)).toMap
    c.probe.resetPeak()
    // Collect the garbage of earlier set-ups and passes outside the timed span.
    System.gc()
    val t0 = now
    val texts = wl.outputs.map { o =>
      val t = now
      val text = Try(Probe.inGroup(c.sc, group(o))(Render.table(o.build(c.attribs))))
      tableMs(o.name) = tableMs.getOrElse(o.name, 0.0) + ms(t)
      o -> text
    }
    val wallS = (now - t0) / 1e9
    c.probe.flush(c.sc)
    val done = groups.map(g => c.probe.counts(g) - before(g))
    val peak = c.probe.peakBytes
    val retained = c.probe.cachedBytes - c.probe.bytesOf(c.attribRdds)
    Probe.dropCachesExcept(c.spark, c.attribs.values.toSeq)
    c.probe.flush(c.sc)
    if (c.probe.cachedBytes != c.attribBytes)
      problem(s"${c.probe.cachedBytes} cached bytes after a pass, ${c.attribBytes} expected")
    Pass(wallS, done.map(_.jobsStarted).sum, done.map(_.shuffleRecords).sum, peak, retained, texts)
  }

  /** Passes must repeat their Spark work exactly. */
  def checkRepeat(passes: Seq[Pass]): Unit = {
    if (passes.map(_.jobs).distinct.size > 1) problem(s"pass_jobs differ across passes: ${passes.map(_.jobs)}")
    if (passes.map(_.shuffleRecords).distinct.size > 1)
      problem(s"pass_shuffle_records differ across passes: ${passes.map(_.shuffleRecords)}")
  }

  /** Run warm-up passes, then measured passes until `seconds` have passed
    * (at least one). Every output of every pass is checked.
    */
  def loop(c: Chains, refs: Map[String, Rendered], warmup: Int, seconds: Double): (Seq[Pass], Seq[Pass]) = {
    def run() = { val p = pass(c, traced = false, mutable.Map.empty); p.texts.foreach { case (o, t) => check(o, t, refs) }; p }
    val warm = Seq.fill(warmup)(run())
    val t0 = now
    val measured = mutable.ArrayBuffer(run())
    while ((now - t0) / 1e9 < seconds) measured += run()
    (warm, measured.toSeq)
  }

  /** End-to-end metrics, measured with tracing off. No pass is discarded:
    * the first pass of a fresh JVM is what a user of the one-table job entry
    * points pays, and a pass that follows a warm-up would have to carry the
    * warm-up's cost (as much again) inside a run's time budget.
    */
  def untraced(seconds: Double): Seq[Metric] = {
    val setups = Bench.Setups
    // Each set-up starts a fresh session; the last one stays open.
    val opened = (1 to setups).map { i =>
      val (c, secs) = open()
      if (i < setups) c.spark.stop()
      (c, secs)
    }
    val setupTimes = opened.map(_._2)
    val c = opened.last._1
    log(s"set-ups: ${setupTimes.map(t => f"$t%.2f s").mkString(" ")}")
    val (_, refs, _) = reference(c)
    val (_, measured) = loop(c, refs, 0, seconds)
    checkRepeat(measured)
    c.spark.stop()
    Seq(
      Metric("report_s", Bench.median(measured.map(_.wallS)), "s",
        s"median of ${measured.size} measured passes; all: ${measured.map(p => f"${p.wallS}%.3f").mkString(" ")}"),
      Metric("setup_s", Bench.median(setupTimes), "s",
        s"median of $setups set-ups; all: ${setupTimes.map(t => f"$t%.3f").mkString(" ")}"),
      Metric("pass_jobs", measured.head.jobs.toDouble, "count", "Spark jobs per pass"),
      Metric("pass_shuffle_records", measured.head.shuffleRecords.toDouble, "count", "shuffle records written per pass"),
      Metric("cache_peak_mb", Bench.median(measured.map(_.peakBytes / 1e6)), "MB",
        "highest cached-block memory during a pass, attribution tables included"),
      Metric("retained_mb", Bench.median(measured.map(_.retainedBytes / 1e6)), "MB",
        "cached-block memory left after a pass beyond the attribution tables"),
      Metric("fail_ratio", failed.toDouble / attempted, "ratio", s"$failed of $attempted table outputs failed"),
    )
  }

  /** Per-layer metrics from one traced run. */
  def traced(): Seq[Metric] = {
    val (c, _) = open()
    val (local, refs, referenceMs) = reference(c)
    val tableMs = mutable.Map.empty[String, Double]
    // The untraced and the traced pass both follow a warm-up pass, so their
    // difference is the tracing, not the JIT.
    val (warm, Seq(plain)) = loop(c, refs, 1, 0.0)
    val tracedPass = pass(c, traced = true, tableMs)
    tracedPass.texts.foreach { case (o, t) => check(o, t, refs) }
    checkRepeat(warm :+ plain :+ tracedPass)

    val layerMs = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    def span[A](layer: String)(body: => A): A = {
      val t = now
      try Probe.inGroup(c.sc, layer)(body) finally layerMs(layer) += ms(t)
    }

    // Render: the formatting of each table, over a driver-local copy of its cells.
    for ((_, Success(text)) <- tracedPass.texts) {
      val t = Check.parse(text)
      val schema = StructType(t.header.map(StructField(_, StringType)))
      val df = c.spark.createDataFrame(java.util.Arrays.asList(t.rows.map(r => Row.fromSeq(r)): _*), schema)
      span("render")(Render.table(df))
    }

    // Each layer's public function on the materialized output of the layer before.
    var fixedRows, slidingRows, assignedRows, slidingInput = 0L
    var anomalyCalls = 0L
    for (s <- wl.chains) {
      val attrib = c.attribs(s.name)
      val chainRows = local(s.name).rows.toLong
      val windowings =
        (if (wl.daily.contains(s)) Seq(FixedWindows.Daily) else Nil).map { g =>
          val counts = span("windows.fixed") {
            val d = FixedWindows.counts(attrib, g).cache(); fixedRows += d.count(); d
          }
          (counts, local(s.name).fixed(g.column))
        } ++ (if (wl.sliding.contains(s)) local(s.name).slidingSizes.take(1) else Nil).map { case (_, n, m) =>
          assignedRows += Probe.inGroup(c.sc, "windows.sliding.assign")(
            SlidingWindows.assign(attrib, n, m, s.blockCount).count())
          slidingInput += chainRows
          val counts = span("windows.sliding") {
            val d = SlidingWindows.counts(attrib, n, m, s.blockCount).cache(); slidingRows += d.count(); d
          }
          (counts, local(s.name).sliding(n, m))
        }
      for ((counts, want) <- windowings) {
        val series = span("metrics") { val d = Metrics.all(counts).cache(); d.count(); d }
        val got = Probe.inGroup(c.sc, "check")(series.collect()).map { r =>
          WindowMetrics(r.getAs[Long]("window_id"), r.getAs[Long]("producers"), r.getAs[Long]("attributions"),
            r.getAs[Double]("gini"), r.getAs[Double]("entropy"), r.getAs[Number]("nakamoto").intValue)
        }
        attempted += 1
        Check.diffSeries(got.toSeq, want).foreach { w => failed += 1; problem(s"${s.name} series: $w") }
        span("pipeline")(Pipeline.summary(series).collect())
        for (metric <- Seq("gini", "entropy", "nakamoto")) {
          span("anomaly")(Anomaly.countExtremes(series, metric))
          anomalyCalls += 1
        }
      }
      Probe.dropCachesExcept(c.spark, c.attribs.values.toSeq)
    }
    c.probe.flush(c.sc)
    val passes = warm :+ plain :+ tracedPass
    val tracedJobs = wl.outputs.map(o => c.probe.counts(s"tables.${o.name}").jobsStarted).sum
    if (tracedJobs != plain.jobs) problem(s"traced pass ran $tracedJobs jobs, untraced ${plain.jobs}")
    c.spark.stop()

    val out = mutable.ArrayBuffer.empty[Metric]
    def m(name: String, v: Double, unit: String): Unit = out += Metric(name, v, unit, "")
    def n(name: String, v: Long, unit: String = "count"): Unit = m(name, v.toDouble, unit)
    def share(a: Long, b: Long) = if (b == 0L) 0.0 else a.toDouble / b
    def counts(layer: String) = c.probe.counts(layer)
    def busy(layer: String, wallMs: Double) =
      if (wallMs <= 0.0) 0.0 else counts(layer).runMs / (wallMs * cores)
    def base(layer: String, wallMs: Double, shuffle: Boolean = true): Unit = {
      m(s"$layer.ms", wallMs, "ms"); n(s"$layer.jobs", counts(layer).jobsStarted)
      n(s"$layer.tasks", counts(layer).tasks)
      if (shuffle) n(s"$layer.shuffle_records", counts(layer).shuffleRecords)
    }
    val chain = counts("chain")
    m("chain.ms", c.generateMs, "ms"); n("chain.jobs", chain.jobsStarted)
    n("chain.tasks", chain.tasks); n("chain.rows_out", c.rows)
    n("chain.cached_bytes", c.attribBytes, "bytes")
    for ((layer, rows) <- Seq("windows.fixed" -> fixedRows, "windows.sliding" -> slidingRows)) {
      base(layer, layerMs(layer)); n(s"$layer.rows_out", rows)
      m(s"$layer.empty_task_share", share(counts(layer).emptyTasks, counts(layer).tasks), "share")
    }
    m("windows.sliding.amplification", share(assignedRows, slidingInput), "ratio")
    base("metrics", layerMs("metrics")); m("metrics.busy_share", busy("metrics", layerMs("metrics")), "share")
    m("metrics.empty_task_share", share(counts("metrics").emptyTasks, counts("metrics").tasks), "share")
    base("pipeline", layerMs("pipeline"), shuffle = false)
    m("anomaly.ms", layerMs("anomaly"), "ms"); n("anomaly.jobs", counts("anomaly").jobsStarted)
    n("anomaly.calls", anomalyCalls)
    for (name <- Workloads.outputs) {
      val layer = s"tables.$name"
      val wallMs = tableMs.getOrElse(name, 0.0)
      base(layer, wallMs); m(s"$layer.busy_share", busy(layer, wallMs), "share")
    }
    m("render.ms", layerMs("render"), "ms")
    m("reference.ms", referenceMs, "ms")
    m("trace.overhead_ms", (tracedPass.wallS - plain.wallS) * 1e3, "ms")
    m("retained_mb", Bench.median(passes.map(_.retainedBytes / 1e6)), "MB")
    m("fail_ratio", share(failed, attempted), "ratio")
    out.toSeq
  }
}

final case class Metric(name: String, value: Double, unit: String, note: String)

object Bench {

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Set-ups per untraced run; `setup_s` is their median. */
  val Setups = 3

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println("usage: Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --cores <k> " +
      "--root <checkout>")
    sys.exit(2)
  }

  private def json(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val wl = Workloads.all.find(_.name == opt("workload"))
      .getOrElse(usage(s"unknown workload ${opt("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = opt("trace") match { case "0" => false; case "1" => true; case t => usage(s"bad --trace $t") }
    val bench = new Bench(wl, opt("seed").toLong, opt("cores").toInt, new File(opt("root")))
    val metrics =
      if (trace) bench.traced()
      else bench.untraced(opt("seconds").toDouble)

    println(s"workload ${wl.name}  seed ${opt("seed")}  trace ${opt("trace")}  " +
      s"tables ${wl.outputs.map(_.name).mkString(", ")}")
    for (m <- metrics)
      println(f"${m.name}%-40s ${m.value}%16.4f ${m.unit}%-6s ${m.note}")
    val body = metrics.map(m => s""""${m.name}": {"value": ${json(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": ${bench.ok}, "attempted": ${bench.attempted}, "failed": ${bench.failed}, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
  }
}
