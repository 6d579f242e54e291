package org.apache.spark

/** The listener bus is internal to Spark; the traced run needs to wait until
  * it has delivered every job and task event of a query before reading them.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
