package perfbench

import scala.util.Try

/** A report table as rendered text cells: a header and rows. */
final case class Rendered(header: Vector[String], rows: Vector[Vector[String]])

/** Compares report tables as multisets of rendered rows, so a table whose
  * row order is not fixed (T6 has no `orderBy`) still matches.
  */
object Check {

  /** Parse the aligned text of [[repro.util.Render.table]]. */
  def parse(text: String): Rendered = {
    val lines = text.linesIterator.map(_.trim).filter(_.nonEmpty).toVector
    def cells(line: String) = line.stripPrefix("|").stripSuffix("|").split('|').toVector.map(_.trim)
    require(lines.size >= 2 && lines(1).startsWith("|-"), s"not a rendered table:\n$text")
    Rendered(cells(lines.head), lines.drop(2).map(cells))
  }

  /** `None` when `got` and `want` hold the same rows in any order, else the
    * reason they differ. With `slack`, two numeric cells also match when
    * they differ by at most one unit in the 4th decimal: the reference sums
    * in another order, so a value on a rounding boundary may render either way.
    */
  def diff(got: Rendered, want: Rendered, slack: Boolean): Option[String] = {
    def num(s: String) = Try(s.toDouble).toOption
    def same(a: String, b: String) = a == b || (slack && ((num(a), num(b)) match {
      case (Some(x), Some(y)) => math.abs(x - y) <= 1.0001e-4
      case _ => false
    }))
    def sameRow(a: Vector[String], b: Vector[String]) =
      a.size == b.size && a.indices.forall(i => same(a(i), b(i)))
    if (got.header != want.header) Some(s"columns ${got.header.mkString(",")} != ${want.header.mkString(",")}")
    else {
      val left = scala.collection.mutable.ArrayBuffer.from(want.rows)
      val extra = got.rows.filterNot { r =>
        val k = left.indexWhere(sameRow(r, _))
        if (k >= 0) left.remove(k)
        k >= 0
      }
      if (extra.isEmpty && left.isEmpty) None
      else Some(s"unexpected rows ${extra.map(_.mkString(" ")).mkString("; ")} | missing rows " +
        left.map(_.mkString(" ")).mkString("; "))
    }
  }

  /** Per-window metrics against the reference: producers, attributions,
    * Gini and Nakamoto exactly, entropy at 4 decimals.
    */
  def diffSeries(got: Seq[WindowMetrics], want: Seq[WindowMetrics]): Option[String] = {
    val byId = want.map(w => w.id -> w).toMap
    val bad = got.filterNot { g =>
      byId.get(g.id).exists { w =>
        g.producers == w.producers && g.attributions == w.attributions && g.gini == w.gini &&
        g.nakamoto == w.nakamoto && math.abs(g.entropy - w.entropy) < 5e-5
      }
    }
    if (bad.isEmpty && got.size == want.size) None
    else Some(s"${bad.size} of ${got.size} windows differ (reference has ${want.size}), first ${bad.headOption}")
  }
}
