package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.core.PowerMethod
import repro.eval.Harness
import repro.graph.{GraphData, GraphGen}

import scala.collection.mutable

/** Shared fixtures for the SimRank suites: a battery of small deterministic
  * graphs (closed-form topologies + seeded pseudo-random ones) and memoized
  * dense Power-Method ground truth (error ≤ c^60 ≈ 5e-14 — exact for all
  * tolerances used in tests).
  */
trait SimTestKit extends SparkSpec {

  val C: Double = Harness.C

  /** Closed-form topologies. */
  lazy val cycle7: GraphData = GraphGen.cycle(spark, 7)
  lazy val path6: GraphData = GraphGen.path(spark, 6)
  lazy val star8: GraphData = GraphGen.star(spark, 8)
  lazy val complete5: GraphData = GraphGen.complete(spark, 5)
  lazy val pair: GraphData = GraphGen.sharedParentPair(spark)

  /** Seeded pseudo-random graphs (directed + undirected). */
  lazy val rnd40: GraphData = GraphGen.localRandom(spark, "rnd40", 40, 160, seed = 3)
  lazy val rnd60u: GraphData = GraphGen.localRandom(spark, "rnd60u", 60, 150, seed = 4, undirected = true)
  lazy val rnd80: GraphData = GraphGen.localRandom(spark, "rnd80", 80, 400, seed = 5)

  lazy val battery: Seq[GraphData] =
    Seq(cycle7, path6, star8, complete5, pair, rnd40, rnd60u, rnd80)

  /** Exact SimRank matrix, memoized per graph name across suites. */
  def groundTruth(g: GraphData): Array[Array[Double]] =
    SimTestKit.gtCache.getOrElseUpdate(g.name, PowerMethod.simrank(g.csr, C, 60))

  /** Exact diagonal correction matrix, from the exact SimRank matrix. */
  def exactD(g: GraphData): Array[Double] =
    SimTestKit.dCache.getOrElseUpdate(g.name, PowerMethod.exactDiag(g.csr, groundTruth(g), C))

  /** Run a ScalaCheck property and fail the test if it does not pass (the
    * scalatestplus bridge artifact is not in the offline cache, so properties
    * are driven through scalacheck's own runner).
    */
  def checkProp(prop: org.scalacheck.Prop, minSuccessful: Int = 50): Unit = {
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(org.scalacheck.rng.Seed(12345L))
    val res = org.scalacheck.Test.check(params, prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  /** Spark jobs started while `body` runs on the shared session. */
  def jobsDuring(body: => Unit): Int = {
    val sc = spark.sparkContext
    val n = new AtomicInteger
    val listener = new SparkListener { override def onJobStart(e: SparkListenerJobStart): Unit = n.incrementAndGet() }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusDrain(sc) }
    finally sc.removeSparkListener(listener)
    n.get
  }

  def assertVecNear(got: Array[Double], want: Array[Double], tol: Double, what: String): Unit = {
    var worst = 0.0; var wi = -1
    got.indices.foreach { i =>
      val d = math.abs(got(i) - want(i)); if (d > worst) { worst = d; wi = i }
    }
    assert(worst <= tol, f"$what: max |Δ| = $worst%.3e at node $wi (tol $tol%.3e)")
  }
}

object SimTestKit {
  private val gtCache = mutable.HashMap.empty[String, Array[Array[Double]]]
  private val dCache = mutable.HashMap.empty[String, Array[Double]]
}
