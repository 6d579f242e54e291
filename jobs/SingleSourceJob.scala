package repro.jobs

import repro.core.{ExactSim, ExactSimConf}
import repro.eval.{Datasets, Metrics}

/** Ad-hoc exact single-source SimRank query.
  *
  * Usage: spark-submit ... --class repro.jobs.SingleSourceJob repro.jar \
  *          [datasetKey=GQ-lite] [source=0] [eps=1e-4] [alpha=1.0] [topK=20]
  */
object SingleSourceJob {
  def main(args: Array[String]): Unit = {
    val key = args.lift(0).getOrElse("GQ-lite")
    val source = args.lift(1).map(_.toInt).getOrElse(0)
    val eps = args.lift(2).map(_.toDouble).getOrElse(1e-4)
    val alpha = args.lift(3).map(_.toDouble).getOrElse(1.0)
    val k = args.lift(4).map(_.toInt).getOrElse(20)

    val spark = JobSession.get(s"exactsim-$key")
    val graph = Datasets.byKey(key).generate(spark)
    println(s"graph: $graph, source=$source, eps=$eps")
    val t0 = System.nanoTime()
    val res = ExactSim.singleSource(graph, source, ExactSimConf.optimized(eps, alpha))
    val millis = (System.nanoTime() - t0) / 1000000
    println(f"query time $millis ms, walk pairs ${res.walkPairs}, ‖π‖²=${res.piNormSq}%.3e")
    println(s"top-$k nodes by SimRank:")
    Metrics.topK(res.scores, k, source).foreach(j => println(f"  v$j%-8d ${res.scores(j)}%.7f"))
    spark.stop()
  }
}
