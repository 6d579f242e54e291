package repro.baselines

/** A baseline's single-source answer: the score column and its query time. */
final case class Result(scores: Array[Double], millis: Long)
