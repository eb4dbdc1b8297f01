package repro.jobs

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** The entry point's command line: table name and scale argument. */
class JobsSpec extends AnyFunSuite {

  private val badScales = Seq("abc", "", "0", "-0.5", "2.0", "NaN", "Infinity")

  test("scaleOf defaults to full scale and accepts (0, 1]") {
    assert(Jobs.scaleOf(None) === 1.0)
    assert(Jobs.scaleOf(Some("1")) === 1.0)
    assert(Jobs.scaleOf(Some("0.05")) === 0.05)
  }

  test("scaleOf rejects non-numeric, non-positive and above-1 scales with a usage message") {
    for (bad <- badScales) {
      val e = intercept[IllegalArgumentException](Jobs.scaleOf(Some(bad)))
      assert(e.getMessage.contains("usage"), bad)
    }
  }

  test("Run reads the scale from the argument after the table name") {
    assert(Run.parse(Array("T4"))._2 === 1.0)
    assert(Run.parse(Array("T4", "0.1"))._2 === 0.1)
    for (bad <- badScales) {
      val e = intercept[IllegalArgumentException](Run.parse(Array("T4", bad)))
      assert(e.getMessage.contains("usage"), bad)
    }
  }

  test("Run selects one table by name, and all of T1–T7 in order for 'all'") {
    assert(Run.parse(Array("T4"))._1.map(_._1) === Seq("T4"))
    assert(Run.parse(Array("all", "0.5"))._1.map(_._1) === (1 to 7).map(k => s"T$k"))
  }

  test("Run rejects an unknown table, no table and extra arguments before any SparkSession starts") {
    val before = SparkSession.getDefaultSession
    for (bad <- Seq(Array("T9"), Array("t4"), Array.empty[String], Array("T4", "0.1", "x"))) {
      val e = intercept[IllegalArgumentException](Run.main(bad))
      assert(e.getMessage.contains("usage"), bad.mkString(" "))
    }
    assert(SparkSession.getDefaultSession === before)
    before.foreach(s => assert(!s.sparkContext.isStopped))
  }
}
