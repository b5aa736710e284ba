package repro.perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** JVM readings: heap after a forced GC, collector totals, and bytes the
  * benchmark thread allocated.
  */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Collections and collector ms spent in [[usedHeapMbAfterGc]]'s forced
    * GCs, which the iteration's GC counters leave out.
    */
  var forcedGc: (Long, Long) = (0L, 0L)

  def usedHeapMbAfterGc(): Double = {
    val (c0, ms0, _) = counters()
    System.gc()
    val (c1, ms1, _) = counters()
    forcedGc = (forcedGc._1 + c1 - c0, forcedGc._2 + ms1 - ms0)
    val rt = Runtime.getRuntime
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  /** (collections, collector ms, bytes allocated by this thread). */
  def counters(): (Long, Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum,
      threads.getThreadAllocatedBytes(Thread.currentThread.getId))
  }

  /** Environment stamp of a run. */
  def env: Map[String, String] = {
    val args = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    Map(
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "xmx" -> args.find(_.startsWith("-Xmx")).map(_.stripPrefix("-Xmx")).getOrElse("default"),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString)
  }
}
