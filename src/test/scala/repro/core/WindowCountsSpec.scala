package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropertyCheck, SparkSpec}

/** The report tables' window counts (`Tables.windowCounts`): one aggregation of
  * the attribution table into partial counts per calendar bucket and pane,
  * emitted into every series window, against the per-block references
  * `FixedWindows.counts` and `SlidingWindows.counts`.
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

  private def tagged(granularity: String, mode: String, counts: DataFrame): DataFrame =
    counts.select(lit(granularity).as("granularity"), lit(mode).as("mode"), col("window_id"), col("miner"), col("cnt"))

  /** Whether the window counts of the day, week and month series and of sliding
    * series of the given (N, M) sizes, over `s` blocks, sum per window and
    * producer to the per-block references and measure identically.
    */
  private def agrees(s: Long, perDay: Long, seed: Long, sizes: Seq[(Long, Long)]): Boolean = {
    val attrib = attribFrame(s, perDay, seed)
    val sliding = sizes.zipWithIndex.map { case ((n, m), k) => Tables.Sliding(s"s$k", n, m, s) }
    val got = Tables.windowCounts("c", attrib, FixedWindows.all.map(Tables.Fixed) ++ sliding).drop("chain")
    val want = (FixedWindows.all.map(g => tagged(g.name, "fixed", FixedWindows.counts(attrib, g))) ++
      sliding.map(w => tagged(w.granularity, "sliding", SlidingWindows.counts(attrib, w.n, w.m, s))))
      .reduce(_ unionByName _)
    def summed(df: DataFrame): Set[Row] =
      df.groupBy("granularity", "mode", "window_id", "miner").agg(sum("cnt")).collect().toSet
    def measured(df: DataFrame): Set[Row] = Metrics.all(df).collect().toSet
    summed(got) == summed(want) && measured(got) == measured(want)
  }

  test("window counts equal the per-block references on hand-picked (S, N, M)") {
    val cases = Seq(
      (20L, Seq((7L, 3L))),            // N not divisible by M, one block per pane
      (40L, Seq((4L, 10L), (8L, 4L))), // gapped (M > N) next to overlapping, panes of 2 blocks
      (45L, Seq((6L, 4L), (12L, 6L))), // S not a multiple of the pane size
      (5L, Seq((10L, 5L), (4L, 2L))),  // S < N: the first series has no window
      (60L, Seq((6L, 3L), (9L, 3L))),  // panes of 3 blocks, several days per pane
    )
    for ((s, sizes) <- cases) assert(agrees(s, 4L, s, sizes), s"S=$s sizes=$sizes")
  }

  test("property: window counts equal the per-block references for random (S, N, M)") {
    val gen = for {
      f      <- Gen.choose(1L, 4L) // a common factor of every size and step: panes of f or more blocks
      sizes  <- Gen.listOfN(2, Gen.zip(Gen.choose(1L, 8L), Gen.choose(1L, 10L)).map { case (a, b) => (f * a, f * b) })
      s      <- Gen.choose(1L, 90L)
      perDay <- Gen.choose(1L, 9L)
      seed   <- Gen.long
    } yield (s, perDay, seed, sizes)
    checkProp(Prop.forAll(gen) { case (s, perDay, seed, sizes) => agrees(s, perDay, seed, sizes) }, minSuccessful = 15)
  }
}
