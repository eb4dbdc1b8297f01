package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.lang.Double.doubleToRawLongBits
import java.security.MessageDigest
import scala.io.{Codec, Source}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropertyCheck, SparkSpec, TestPipeline}
import repro.chain.{BlockGenerator, ChainParams}

/** The report tables' measured windows (`Tables.windowsOf`): one fold of the
  * attribution table that counts each row into every window of each series,
  * against two references: `TestPipeline.series` over the per-block window counts
  * `FixedWindows.counts` / `SlidingWindows.counts`, and `LocalMetrics` over
  * per-block windows built in plain Scala from the collected rows (independent
  * of the fold, which `Metrics.all` shares). Also the distinct blocks the
  * same fold counts per window, under sliding and fixed series, and a
  * committed digest of every window of the scaled chains.
  */
class WindowCountsSpec extends SparkSpec with PropertyCheck {

  /** `s` blocks of `perDay` blocks a day, 30-day months; every fifth block also
    * has a one-off producer, so a block may hold more than one attribution.
    */
  private def attribFrame(s: Long, perDay: Long, seed: Long): DataFrame = {
    import spark.implicits._
    val rnd = new scala.util.Random(seed)
    val rows = (0L until s).flatMap { i =>
      val day = (i / perDay + 1).toInt
      val extra = if (i % 5 == 4) Seq(s"anon_$i") else Nil
      (s"m${rnd.nextInt(4)}" +: extra).map(miner => (i, miner, day, (day - 1) / 7 + 1, (day - 1) / 30 + 1))
    }
    rows.toDF("idx", "miner", "day", "week", "month").repartition(3)
  }

  /** The windowing mode of a series, as the references tag it. */
  private def mode(s: Tables.Series): String = s match {
    case _: Tables.Fixed   => "fixed"
    case _: Tables.Sliding => "sliding"
  }

  /** A series row with its doubles as raw bits, so equality is bit-identity. */
  private def bits(r: Row): Seq[Any] = r.toSeq.map { case d: Double => java.lang.Double.doubleToRawLongBits(d); case v => v }

  /** The series of `series` measured in plain Scala: per-block window membership, then
    * [[LocalMetrics]] over each window's per-producer counts in ascending order.
    */
  private def local(attrib: DataFrame, series: Seq[Tables.Series]): Set[Seq[Any]] = {
    val rows = attrib.collect().toSeq
    def windowsOf(s: Tables.Series, r: Row): Seq[Long] = s match {
      case Tables.Fixed(g) => Seq(r.getAs[Int](g.column).toLong)
      case w: Tables.Sliding =>
        val i = r.getAs[Long]("idx")
        (0L until SlidingWindows.numWindows(w.blocks, w.n, w.m)).filter(j => j * w.m <= i && i < j * w.m + w.n)
    }
    (for {
      s            <- series
      (j, members) <- rows.flatMap(r => windowsOf(s, r).map(_ -> r.getAs[String]("miner"))).groupBy(_._1)
    } yield {
      val xs = members.groupBy(_._2).values.map(_.size.toLong).toSeq.sorted
      bits(Row("c", s.granularity, mode(s), j, xs.size.toLong, xs.sum,
        LocalMetrics.gini(xs), LocalMetrics.entropy(xs), LocalMetrics.nakamoto(xs)))
    }).toSet
  }

  /** Whether the table series of the day, week and month series and of sliding series of
    * the given (N, M) sizes, over `s` blocks, are bit-identical to both references.
    */
  private def agrees(s: Long, perDay: Long, seed: Long, sizes: Seq[(Long, Long)]): Boolean = {
    val attrib = attribFrame(s, perDay, seed)
    val sliding = sizes.zipWithIndex.map { case ((n, m), k) => Tables.Sliding(s"s$k", n, m, s) }
    val series = FixedWindows.all.map(Tables.Fixed) ++ sliding
    val Seq(windows) = Tables.windowsOf(Seq(attrib), series)
    val got = series.zip(windows).flatMap { case (w, ws) =>
      ws.map(m => bits(Row("c", w.granularity, mode(w), m.window_id, m.producers, m.attributions, m.gini, m.entropy, m.nakamoto)))
    }
    val references = series.flatMap { w =>
      val counts = w match {
        case Tables.Fixed(g)   => FixedWindows.counts(attrib, g)
        case v: Tables.Sliding => SlidingWindows.counts(attrib, v.n, v.m, s)
      }
      TestPipeline.series(counts).collect().toSeq.map(r => Seq("c", w.granularity, mode(w)) ++ bits(r))
    }
    def sorted(rows: Seq[Seq[Any]]) = rows.sortBy(_.toString)
    windows.forall(ws => ws.map(_.window_id) == ws.map(_.window_id).sorted) &&
      sorted(got) == sorted(references) && got.size == got.toSet.size &&
      got.toSet == local(attrib, series)
  }

  test("window counts equal the per-block references on hand-picked (S, N, M)") {
    val cases = Seq(
      (20L, Seq((7L, 3L))),            // N not divisible by M
      (40L, Seq((4L, 10L), (8L, 4L))), // gapped (M > N) next to overlapping
      (5L, Seq((10L, 5L), (4L, 2L))),  // S < N: the first series has no window
      (30L, Seq((5L, 1L), (1L, 1L))),  // one block per window step; one-block windows
    )
    for ((s, sizes) <- cases) assert(agrees(s, 4L, s, sizes), s"S=$s sizes=$sizes")
  }

  test("property: window counts equal the per-block references for random (S, N, M)") {
    val gen = for {
      sizes  <- Gen.listOfN(2, Gen.zip(Gen.choose(1L, 16L), Gen.choose(1L, 20L)))
      s      <- Gen.choose(1L, 90L)
      perDay <- Gen.choose(1L, 9L)
      seed   <- Gen.long
    } yield (s, perDay, seed, sizes)
    checkProp(Prop.forAll(gen) { case (s, perDay, seed, sizes) => agrees(s, perDay, seed, sizes) }, minSuccessful = 15)
  }

  test("Metrics.windows counts N distinct blocks per sliding window and DuckDB's COUNT(DISTINCT) per fixed one") {
    // Scaled BTC: every block has an attribution, and the anomaly blocks have many.
    val spec = ChainParams.btc2019.scaled(0.05)
    val attrib = BlockGenerator.attributions(spark, spec, 31L)
    val anomalous = spec.anomalies.map(a => spec.blockAtDay(a.day, a.frac) - spec.firstBlock)
    val sliding = FixedWindows.all.map { g => val n = g.slidingSize(spec); (n, SlidingWindows.paperStep(n)) }
    val series = FixedWindows.all.map(g => col(g.column) -> Metrics.Point) ++ sliding.map { case (n, m) =>
      col("idx") -> Metrics.Band(n, m, SlidingWindows.numWindows(spec.blockCount, n, m))
    }
    val Seq(measured) = Metrics.windows(Seq(attrib), series, col("miner"), lit(1L), col("block_number"))
    val (fixed, slid) = measured.splitAt(FixedWindows.all.size)
    for (((n, m), windows) <- sliding.zip(slid)) {
      assert(windows.map(_.window_id) === (0L until SlidingWindows.numWindows(spec.blockCount, n, m)), s"N=$n")
      for (w <- windows) {
        val anomaly = anomalous.exists(i => w.window_id * m <= i && i < w.window_id * m + n)
        assert(w.blocks === n && w.attributions >= w.blocks && (w.attributions == w.blocks) === !anomaly,
          s"N=$n window ${w.window_id}")
      }
      assert(windows.exists(w => w.attributions > w.blocks) && windows.exists(w => w.attributions == w.blocks), s"N=$n")
    }
    import spark.implicits._
    Oracle.assertEquivalent(
      FixedWindows.all.zip(fixed).flatMap { case (g, ws) => ws.map(w => (g.name, w.window_id, w.blocks)) }
        .toDF("granularity", "window_id", "blocks"),
      FixedWindows.all.map(g =>
        s"""SELECT '${g.name}' AS granularity, CAST(${g.column} AS BIGINT) AS window_id,
           |  COUNT(DISTINCT CAST(block_number AS BIGINT)) AS blocks FROM a GROUP BY ${g.column}""".stripMargin)
        .mkString(" UNION ALL "),
      "a" -> attrib.select("block_number", "day", "week", "month"))
  }

  /** A SHA-256 over every window of `ws`, in order: its window id, blocks, producers and
    * attributions, the raw bits of its Gini and entropy, and its Nakamoto coefficient.
    */
  private def digest(ws: Seq[Metrics.Measured]): String = {
    val bytes = new ByteArrayOutputStream
    val out = new DataOutputStream(bytes)
    for (w <- ws) {
      Seq(w.window_id, w.blocks, w.producers, w.attributions, doubleToRawLongBits(w.gini), doubleToRawLongBits(w.entropy))
        .foreach(out.writeLong)
      out.writeInt(w.nakamoto)
    }
    MessageDigest.getInstance("SHA-256").digest(bytes.toByteArray).map(b => f"$b%02x").mkString
  }

  test("every window of the scaled chains equals the committed per-series digest") {
    // One line per chain and series: its window count and the digest of its windows, so a
    // diff names the series that moved, however little its 4-decimal summaries move.
    val lines = for (base <- Seq(ChainParams.btc2019, ChainParams.eth2019)) yield {
      val spec = base.scaled(0.01)
      val attrib = BlockGenerator.attributions(spark, spec, 2019L).cache()
      val sliding = FixedWindows.all.map { g =>
        val n = g.slidingSize(spec)
        Tables.Sliding(g.name, n, SlidingWindows.paperStep(n), spec.blockCount)
      }
      val series = FixedWindows.all.map(Tables.Fixed) ++ sliding
      val Seq(windows) = Tables.windowsOf(Seq(attrib), series)
      val Seq(Seq(daily)) = Tables.windowsOf(Seq(attrib), Seq(Tables.Fixed(FixedWindows.Daily)), col("block_number"))
      attrib.unpersist()
      (series.map(s => s"${mode(s)} ${s.granularity}") :+ "fixed day with blocks").zip(windows :+ daily)
        .map { case (name, ws) => s"${spec.name} $name ${ws.size} ${digest(ws)}" }
    }
    val got = lines.flatten.mkString("", "\n", "\n")
    assert(got === Source.fromResource("windows-0.01.txt")(Codec.UTF8).mkString)
  }
}
