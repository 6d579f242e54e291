package repro.baselines

import repro.core.Linearized
import repro.graph.GraphData
import repro.linalg.LocalEngine

/** ParSim (Yu & McCann): the linearized iteration with the approximation
  * `D = (1−c)·I`, i.e. the first-meeting constraint is ignored. Index-free;
  * the single parameter is the iteration count `L`. Its MaxError plateaus at
  * the bias of the D approximation — the paper's Figure 1/5 shape.
  */
object ParSim {

  def singleSource(graph: GraphData, source: Int, c: Double, iters: Int): Result = {
    Linearized.requireSource(source, graph.n)
    val t0 = System.nanoTime()
    val eng = new LocalEngine(graph.csr)
    val fwd = Linearized.forward(eng, source, c, iters)
    val dhat = Array.fill(graph.n)(1.0 - c)
    val scores = Linearized.backward(eng, fwd, dhat, c)
    scores(source) = 1.0
    Result(scores, (System.nanoTime() - t0) / 1000000)
  }
}
