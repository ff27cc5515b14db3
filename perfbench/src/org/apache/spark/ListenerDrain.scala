package org.apache.spark

/** Waits until every posted listener event has been delivered, so the
  * benchmark reads complete job and stage records after a traced phase.
  * The listener bus is private to Spark, hence this package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
