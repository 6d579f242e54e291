package org.apache.spark

/** The listener bus is internal to Spark; tests that count jobs with a
  * `SparkListener` wait until it has delivered every event before reading.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
