package repro

/** The DuckDB oracle compares results as bags, whatever order the rows
  * arrive in on either side.
  */
class OracleSpec extends SparkSpec {

  test("rows that concatenate to the same string compare equal in any order") {
    import spark.implicits._
    // Joined without a separator, the first two rows both read "123";
    // joined with U+0001 between cells, the last two read the same too.
    // Each side sends them in the opposite order of the other.
    val rows = Seq(("1", "23"), ("12", "3"), ("a\u0001", "b"), ("a", "\u0001b"))
    val t    = rows.toDF("x", "y")
    Oracle.assertEquivalent(t, "SELECT x, y FROM t ORDER BY x", "t" -> t)
    Oracle.assertEquivalent(rows.reverse.toDF("x", "y"),
      "SELECT x, y FROM t ORDER BY x DESC", "t" -> t)
  }

  test("bags that differ in one row's multiplicity compare unequal") {
    import spark.implicits._
    val t = Seq(("1", "2"), ("1", "2"), ("3", "4")).toDF("x", "y")
    intercept[IllegalArgumentException](Oracle.assertEquivalent(
      Seq(("1", "2"), ("3", "4"), ("3", "4")).toDF("x", "y"), "SELECT x, y FROM t", "t" -> t))
  }
}
