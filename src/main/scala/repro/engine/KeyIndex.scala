package repro.engine

/** A hash table from a join key to the rows that hold it: open addressing
  * with linear probing over primitive arrays, and each key's rows stored
  * contiguously (CSR), so a lookup returns a row range.
  *
  * A key's group is `find(key)`, or −1 if no row holds the key; its rows
  * are `rows(from(g))` until `rows(until(g))`, in ascending row order.
  */
final class KeyIndex private (slotKey: Array[Long], slotGroup: Array[Int], start: Array[Int],
                              val rows: Array[Int]) extends Serializable {
  private val mask = slotKey.length - 1

  def find(key: Long): Int = {
    var s = KeyIndex.mix(key) & mask
    while (slotGroup(s) >= 0) {
      if (slotKey(s) == key) return slotGroup(s)
      s = (s + 1) & mask
    }
    -1
  }

  def contains(key: Long): Boolean = find(key) >= 0

  def from(g: Int): Int  = start(g)
  def until(g: Int): Int = start(g + 1)
}

object KeyIndex {
  /** The index of `keys`, row r holding `keys(r)`. */
  def apply(keys: Array[Long]): KeyIndex = {
    val n         = keys.length
    val slots     = Integer.highestOneBit(math.max(2 * n, 1) * 2 - 1) // a power of two ≥ 2n
    val slotKey   = new Array[Long](slots)
    val slotGroup = Array.fill(slots)(-1)
    val group     = new Array[Int](n)
    var groups    = 0
    var r         = 0
    while (r < n) {
      val k = keys(r)
      var s = mix(k) & (slots - 1)
      while (slotGroup(s) >= 0 && slotKey(s) != k) s = (s + 1) & (slots - 1)
      if (slotGroup(s) < 0) { slotKey(s) = k; slotGroup(s) = groups; groups += 1 }
      group(r) = slotGroup(s)
      r += 1
    }
    // Counting sort of the rows by group.
    val start = new Array[Int](groups + 1)
    for (g <- group) start(g + 1) += 1
    for (g <- 1 to groups) start(g) += start(g - 1)
    val next = start.clone()
    val rows = new Array[Int](n)
    r = 0
    while (r < n) { rows(next(group(r))) = r; next(group(r)) += 1; r += 1 }
    new KeyIndex(slotKey, slotGroup, start, rows)
  }

  /** The low bits of MurmurHash3's 64-bit finalizer. */
  private def mix(key: Long): Int = {
    var h = key
    h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
    h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
    (h ^ (h >>> 33)).toInt
  }
}
