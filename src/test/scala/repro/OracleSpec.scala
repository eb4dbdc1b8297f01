package repro

import org.apache.spark.sql.functions._

/** The oracle itself must be trustworthy: it should accept equivalent
  * results and reject wrong ones, column mismatches, and row-count drift.
  */
class OracleSpec extends SparkSpec {

  private def df = {
    import spark.implicits._
    Seq((1L, "a", 10L), (1L, "b", 20L), (2L, "a", 5L)).toDF("w", "k", "v")
  }

  test("accepts an identical aggregation") {
    val agg = df.groupBy("w").agg(sum("v").as("s"))
    Oracle.assertEquivalent(agg,
      "SELECT CAST(w AS BIGINT) AS w, SUM(CAST(v AS BIGINT)) AS s FROM t GROUP BY 1",
      "t" -> df)
  }

  test("rejects a wrong aggregate value") {
    val wrong = df.groupBy("w").agg((sum("v") + 1).as("s"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT CAST(w AS BIGINT) AS w, SUM(CAST(v AS BIGINT)) AS s FROM t GROUP BY 1",
        "t" -> df)
    }
    assert(e.getMessage.contains("result mismatch"))
  }

  test("rejects a column-name mismatch") {
    val agg = df.groupBy("w").agg(sum("v").as("total"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg,
        "SELECT CAST(w AS BIGINT) AS w, SUM(CAST(v AS BIGINT)) AS s FROM t GROUP BY 1",
        "t" -> df)
    }
    assert(e.getMessage.contains("column mismatch"))
  }

  test("rejects missing rows") {
    val filtered = df.where(col("w") === 1L).groupBy("w").agg(sum("v").as("s"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(filtered,
        "SELECT CAST(w AS BIGINT) AS w, SUM(CAST(v AS BIGINT)) AS s FROM t GROUP BY 1",
        "t" -> df)
    }
  }

  test("handles NULLs on both sides") {
    import spark.implicits._
    val withNull = Seq((1L, Option.empty[String]), (2L, Some("x")))
      .toDF("id", "s")
    Oracle.assertEquivalent(withNull,
      "SELECT CAST(id AS BIGINT) AS id, s FROM t",
      "t" -> withNull)
  }

  test("double canonicalization is round-trip exact") {
    import spark.implicits._
    val d = Seq((1L, 0.1 + 0.2)).toDF("id", "x") // 0.30000000000000004
    Oracle.assertEquivalent(d,
      "SELECT CAST(id AS BIGINT) AS id, CAST(x AS DOUBLE) AS x FROM t",
      "t" -> d)
  }

  test("rejects doubles that differ in the last bit") {
    import spark.implicits._
    val d = Seq((1L, 0.1 + 0.2)).toDF("id", "x")
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(d,
        "SELECT CAST(id AS BIGINT) AS id, CAST(0.3 AS DOUBLE) AS x FROM t",
        "t" -> d)
    }
    assert(e.getMessage.contains("result mismatch"))
  }
}
