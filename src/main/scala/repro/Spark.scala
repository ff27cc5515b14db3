package repro

import org.apache.spark.sql.SparkSession

/** The repository's one Spark configuration, shared by the experiment
  * runner and the tests: local mode unless `SPARK_MASTER` names another
  * master, 8 shuffle partitions (the datasets are small, so scheduling
  * overhead dominates otherwise), and automatic broadcast joins off, so a
  * DataFrame join that Spark plans is planned without size-based
  * broadcasts. Those joins are `Estimation`'s, `SemiJoinReduction`'s and
  * the chains `ManyToManyReorder` leaves to Spark; a chain it hands to the
  * engine (`ManyToManyJoinExec`) runs no Spark join.
  */
object Spark {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", 8L)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
