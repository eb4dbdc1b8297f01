package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropertyCheck, SparkSpec}
import repro.chain.{BlockGenerator, ChainParams}

/** Sliding block-index windowing: Eq. 5 result counts, membership rules,
  * overlap behaviour, and DuckDB band-join equivalence.
  */
class SlidingWindowsSpec extends SparkSpec with PropertyCheck {

  test("Eq. 5: L = ((S - N) / M) + 1 for the paper's configurations") {
    // Paper §III-B reports ~700 daily-window results for Bitcoin vs 365 fixed.
    assert(SlidingWindows.numWindows(54231L, 144L, 72L) === 752L)
    assert(SlidingWindows.numWindows(54231L, 1008L, 504L) === 106L)
    assert(SlidingWindows.numWindows(54231L, 4320L, 2160L) === 24L)
    assert(SlidingWindows.numWindows(2204650L, 6000L, 3000L) === 733L)
    assert(SlidingWindows.numWindows(2204650L, 42000L, 21000L) === 103L)
    assert(SlidingWindows.numWindows(2204650L, 180000L, 90000L) === 23L)
  }

  test("Eq. 5 edge cases") {
    assert(SlidingWindows.numWindows(10L, 10L, 5L) === 1L)
    assert(SlidingWindows.numWindows(9L, 10L, 5L) === 0L)
    assert(SlidingWindows.numWindows(15L, 10L, 5L) === 2L)
    assert(SlidingWindows.numWindows(14L, 10L, 5L) === 1L)
    assert(SlidingWindows.numWindows(100L, 10L, 10L) === 10L) // no overlap = fixed
    intercept[IllegalArgumentException](SlidingWindows.numWindows(10L, 0L, 5L))
  }

  test("first…last are exactly the windows holding p, for every p, N, M and S of a grid (no Spark)") {
    // Negative p and p past the last window; N = 1, 2 and N not divisible by M; M > N (gapped);
    // S < N (L = 0).
    for (n <- 1L to 9L; m <- 1L to 11L; s <- 0L to 24L; p <- -12L to 36L) {
      val l = SlidingWindows.numWindows(s, n, m)
      val want = (0L until l).filter(j => j * m <= p && p < j * m + n)
      assert((SlidingWindows.first(p, n, m) to SlidingWindows.last(p, m, l)) === want, s"p=$p N=$n M=$m S=$s")
    }
  }

  test("a null idx is in no window of assign or counts") {
    import spark.implicits._
    val attrib = Seq[(Option[Long], String)]((Some(0L), "a"), (None, "b"), (Some(1L), "a")).toDF("idx", "miner")
    // S = 3, N = 2, M = 1: window 0 = [0, 2), window 1 = [1, 3).
    val assigned = SlidingWindows.assign(attrib, 2L, 1L, 3L).collect().map(r => (r.getLong(0), r.getLong(2))).toSet
    assert(assigned === Set((0L, 0L), (1L, 0L), (1L, 1L)))
    val counts = SlidingWindows.counts(attrib, 2L, 1L, 3L).collect().map(r => (r.getLong(0), r.getString(1), r.getLong(2)))
    assert(counts.toSet === Set((0L, "a", 2L), (1L, "a", 1L)))
  }

  private def idxFrame(s: Long) = {
    import spark.implicits._
    (0L until s).map(i => (i, i, s"m${i % 3}")).toDF("block_number", "idx", "miner")
  }

  test("first window covers exactly [0, N)") {
    val a = SlidingWindows.assign(idxFrame(20L), n = 8L, m = 4L, totalBlocks = 20L)
    val w0 = a.where(col("window_id") === 0L).select("idx").collect().map(_.getLong(0)).sorted
    assert(w0 === (0L until 8L).toArray)
  }

  test("window j covers exactly [j*M, j*M + N)") {
    val a = SlidingWindows.assign(idxFrame(20L), n = 8L, m = 4L, totalBlocks = 20L)
    for (j <- 0L to 3L) {
      val w = a.where(col("window_id") === j).select("idx").collect().map(_.getLong(0)).sorted
      assert(w === (j * 4 until j * 4 + 8).toArray, s"window $j")
    }
  }

  test("with M = N/2 every interior block is in exactly 2 windows") {
    val s = 40L; val n = 10L; val m = 5L
    val l = SlidingWindows.numWindows(s, n, m) // 7
    val a = SlidingWindows.assign(idxFrame(s), n, m, s)
    val memberships = a.groupBy("idx").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    for (i <- 0L until s) {
      val expected = {
        val lo = math.max(0L, math.ceil((i - n + 1).toDouble / m).toLong)
        val hi = math.min(l - 1, i / m)
        math.max(0L, hi - lo + 1)
      }
      assert(memberships.getOrElse(i, 0L) === expected, s"idx $i")
      if (i >= n - m && i < (l - 1) * m + n - m) assert(memberships(i) === 2L, s"interior idx $i")
    }
  }

  test("trailing blocks beyond the last window are dropped (paper Eq. 5 truncation)") {
    // S=23, N=10, M=5 → L=3, last window covers [10, 20); idx 20..22 unassigned.
    val s = 23L
    val a = SlidingWindows.assign(idxFrame(s), 10L, 5L, s)
    val assigned = a.select("idx").distinct().collect().map(_.getLong(0)).toSet
    assert(!assigned.contains(20L) && !assigned.contains(21L) && !assigned.contains(22L))
    assert(assigned === (0L until 20L).toSet)
  }

  test("N not divisible by M works (N=7, M=3)") {
    val s = 20L
    val l = SlidingWindows.numWindows(s, 7L, 3L) // (13/3)+1 = 5
    assert(l === 5L)
    val a = SlidingWindows.assign(idxFrame(s), 7L, 3L, s)
    for (j <- 0L until l) {
      val w = a.where(col("window_id") === j).select("idx").collect().map(_.getLong(0)).sorted
      assert(w === (j * 3 until j * 3 + 7).toArray, s"window $j")
    }
  }

  test("gapped windows when M > N assign between-window blocks to nothing") {
    val s = 20L
    val a = SlidingWindows.assign(idxFrame(s), n = 2L, m = 5L, totalBlocks = s)
    val assigned = a.select("idx").distinct().collect().map(_.getLong(0)).toSet
    // windows: [0,2) [5,7) [10,12) [15,17)
    assert(assigned === Set(0L, 1L, 5L, 6L, 10L, 11L, 15L, 16L))
  }

  test("S < N yields an empty assignment with the right schema") {
    val a = SlidingWindows.assign(idxFrame(5L), 10L, 5L, 5L)
    assert(a.count() === 0L)
    assert(a.columns.contains("window_id"))
  }

  test("counts aggregate the assignment per (window, miner)") {
    val s = 12L
    val c = SlidingWindows.counts(idxFrame(s), 6L, 3L, s)
    // window 0 = idx 0..5 → miners m0:2, m1:2, m2:2
    val w0 = c.where(col("window_id") === 0L).collect()
      .map(r => r.getString(1) -> r.getLong(2)).toMap
    assert(w0 === Map("m0" -> 2L, "m1" -> 2L, "m2" -> 2L))
  }

  test("property: membership counts match the closed form for random (S, N, M)") {
    val gen = for {
      s <- Gen.chooseNum(5L, 60L)
      n <- Gen.chooseNum(2L, 30L)
      m <- Gen.chooseNum(1L, 15L)
    } yield (s, n, m)
    checkProp(Prop.forAll(gen) { case (s, n, m) =>
      val l = SlidingWindows.numWindows(s, n, m)
      val a = SlidingWindows.assign(idxFrame(s), n, m, s)
      val total = a.count()
      val expected = (0L until s).map { i =>
        if (l == 0) 0L
        else {
          val lo = math.max(0L, math.ceil((i - n + 1).toDouble / m).toLong)
          val hi = math.min(l - 1, i / m)
          math.max(0L, hi - lo + 1)
        }
      }.sum
      total == expected
    }, minSuccessful = 15)
  }

  test("oracle: sliding counts match a DuckDB band join (scaled BTC)") {
    val spec   = ChainParams.btc2019.scaled(0.01) // 542 blocks, N=day≈1? -> use explicit N
    val attrib = BlockGenerator.attributions(spark, spec, seed = 3L)
    val n = 40L; val m = 20L
    val l = SlidingWindows.numWindows(spec.blockCount, n, m)
    Oracle.assertEquivalent(
      SlidingWindows.counts(attrib, n, m, spec.blockCount),
      s"""SELECT w.range AS window_id, a.miner, COUNT(*) AS cnt
         |FROM attrib a, range(0, $l) w
         |WHERE CAST(a.idx AS BIGINT) >= w.range * $m
         |  AND CAST(a.idx AS BIGINT) <  w.range * $m + $n
         |GROUP BY 1, 2""".stripMargin,
      "attrib" -> attrib,
    )
  }

  test("sliding with M = N degenerates to contiguous fixed blocks") {
    val s = 30L
    val a = SlidingWindows.assign(idxFrame(s), 10L, 10L, s)
    val memberships = a.groupBy("idx").count().collect()
    assert(memberships.forall(_.getLong(1) === 1L))
    assert(a.select("window_id").distinct().count() === 3L)
  }
}
