package org.apache.spark

/** The one Spark-internal call the benchmark needs: waiting until the
  * listener bus has delivered every posted event, so listener totals read
  * after an action include it.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
