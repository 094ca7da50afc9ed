package org.apache.spark.sql.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The two Spark internals the benchmark's tracing needs, reached from
  * inside Spark's package because they are package-private.
  */
object SparkInternals {

  /** Block until every listener event posted so far has been delivered. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** The query execution an SQL execution-end event reports on. */
  def queryExecution(end: SparkListenerSQLExecutionEnd): QueryExecution = end.qe
}
