package repro.util

import org.apache.spark.sql.DataFrame

/** Plain-text table rendering for jobs and bench reports. */
object Render {

  private def fmt(v: Any): String = v match {
    case null      => "∅"
    case d: Double => f"$d%.4f"
    case x         => x.toString
  }

  /** Render a DataFrame as an aligned text table of all its rows. */
  def table(df: DataFrame): String = {
    val header = df.columns.toSeq
    val rows   = df.collect().toSeq.map(r => header.indices.map(i => fmt(r.get(i))))
    val widths = header.indices.map(i => (header(i).length +: rows.map(_(i).length)).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }
}
