package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The job entry points' command-line scale argument. */
class JobsSpec extends AnyFunSuite {

  test("scaleOf defaults to full scale and accepts (0, 1]") {
    assert(Jobs.scaleOf(Array.empty) === 1.0)
    assert(Jobs.scaleOf(Array("1")) === 1.0)
    assert(Jobs.scaleOf(Array("0.05")) === 0.05)
  }

  test("scaleOf rejects non-numeric, non-positive and above-1 scales with a usage message") {
    for (bad <- Seq("abc", "", "0", "-0.5", "2.0", "NaN", "Infinity")) {
      val e = intercept[IllegalArgumentException](Jobs.scaleOf(Array(bad)))
      assert(e.getMessage.contains("usage"), bad)
    }
  }
}
