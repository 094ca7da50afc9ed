package perfbench

import java.sql.DriverManager
import org.duckdb.DuckDBConnection
import repro.oracle.PatternSql
import repro.pattern.Pattern

/** Reference match counts from DuckDB, by the oracle's pattern-to-SQL
  * compiler: every isomorphism enumerated by plain joins, divided by the
  * automorphism count. No plan, symmetry breaking or Spark is involved.
  */
object DuckRef {

  /** Canonical match count of `p` in the undirected graph `edges`. */
  def count(edges: Array[(Long, Long)], p: Pattern): Long = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      st.execute("CREATE TABLE raw (a BIGINT, b BIGINT)")
      val app = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, "raw")
      for ((a, b) <- edges) { app.beginRow(); app.append(a); app.append(b); app.endRow() }
      app.close()
      // PatternSql expects the symmetric edge relation g(src, dst).
      st.execute(
        """CREATE TABLE g AS
          |WITH e AS (SELECT DISTINCT least(a, b) AS s, greatest(a, b) AS d FROM raw WHERE a <> b)
          |SELECT s AS src, d AS dst FROM e UNION ALL SELECT d, s FROM e""".stripMargin)
      val rs = st.executeQuery(PatternSql.countSql(p))
      rs.next()
      rs.getLong(1)
    } finally conn.close()
  }
}
