package history

import "math/bits"

// table is an open-addressing hash table from uint64 keys to uint32
// values: linear probing over a power-of-two cell array kept at most
// three-quarters full, Fibonacci hashing of the key, and deletion by
// backward shift — the cells after a removed key that probed past it
// move back into the hole — so there are no tombstones and a lookup's
// cost depends only on the keys present. A cell stores value+1, which
// leaves 0 to mark it empty. The zero table is empty and usable.
type table struct {
	cells []cell
	n     int
	shift uint8 // 64 - log2(len(cells))
}

type cell struct {
	key uint64
	val uint32 // value + 1; 0 means empty
}

// home is the cell a key probes first.
func (t *table) home(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> t.shift) }

// get returns k's value and whether k is present.
func (t *table) get(k uint64) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.cells) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.val == 0 {
			return 0, false
		}
		if c.key == k {
			return c.val - 1, true
		}
	}
}

// put sets k's value.
func (t *table) put(k uint64, v uint32) {
	if 4*(t.n+1) > 3*len(t.cells) {
		t.grow()
	}
	mask := len(t.cells) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.val == 0 {
			c.key, c.val = k, v+1
			t.n++
			return
		}
		if c.key == k {
			c.val = v + 1
			return
		}
	}
}

// del removes k, reporting whether it was present.
func (t *table) del(k uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.cells) - 1
	hole := t.home(k)
	for t.cells[hole].key != k {
		if t.cells[hole].val == 0 {
			return false
		}
		hole = (hole + 1) & mask
	}
	if t.cells[hole].val == 0 {
		return false
	}
	// Walk the rest of the cluster: a key may fill the hole iff its home
	// does not lie in the cyclic interval (hole, j], i.e. its probe from
	// home passed the hole on the way to j.
	for j := (hole + 1) & mask; t.cells[j].val != 0; j = (j + 1) & mask {
		if d := (j - t.home(t.cells[j].key)) & mask; d >= (j-hole)&mask {
			t.cells[hole] = t.cells[j]
			hole = j
		}
	}
	t.cells[hole] = cell{}
	t.n--
	return true
}

// grow doubles the cell array (eight cells at first) and reinserts every
// key.
func (t *table) grow() {
	old := t.cells
	size := max(8, 2*len(old))
	t.cells = make([]cell, size)
	t.shift = uint8(64 - bits.Len(uint(size-1)))
	t.n = 0
	for _, c := range old {
		if c.val != 0 {
			t.put(c.key, c.val-1)
		}
	}
}
