package history

import (
	"math/bits"
	"math/rand"
	"testing"
)

// collidingKeys returns n keys whose first probe in a table of the given
// size is cell at.
func collidingKeys(size, at, n int) []uint64 {
	t := table{shift: uint8(64 - bits.Len(uint(size-1)))}
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if t.home(k) == at {
			out = append(out, k)
		}
	}
	return out
}

// indexKeys is the key pool of the index tests: clusters that start in
// the last cells of an 8-, 16- and 32-cell table, so that they wrap around
// the end of the array, a cluster two cells before the end that the
// wrapping ones run into, key 0, and a few keys with no collision planned.
var indexKeys = func() []uint64 {
	keys := []uint64{0, 1 << 40, 7<<40 | 3, ^uint64(0)}
	keys = append(keys, collidingKeys(8, 7, 6)...)
	keys = append(keys, collidingKeys(8, 6, 4)...)
	keys = append(keys, collidingKeys(16, 15, 6)...)
	keys = append(keys, collidingKeys(32, 31, 6)...)
	keys = append(keys, collidingKeys(32, 30, 4)...)
	return keys
}()

// checkTable verifies the table against the reference map and its own
// probe invariant: every key sits in a cell reachable from its home
// without crossing an empty cell, and n counts the full cells.
func checkTable(t testing.TB, step int, tb *table, ref map[uint64]uint32) {
	full := 0
	mask := len(tb.cells) - 1
	for i, c := range tb.cells {
		if c.val == 0 {
			continue
		}
		full++
		for j := tb.home(c.key); j != i; j = (j + 1) & mask {
			if tb.cells[j].val == 0 {
				t.Fatalf("step %d: key %#x in cell %d is cut off from its home %d by empty cell %d", step, c.key, i, tb.home(c.key), j)
			}
		}
	}
	if full != tb.n || tb.n != len(ref) {
		t.Fatalf("step %d: %d full cells, n = %d, model %d keys", step, full, tb.n, len(ref))
	}
	for _, k := range indexKeys {
		v, ok := tb.get(k)
		if w, wok := ref[k]; ok != wok || v != w {
			t.Fatalf("step %d: get(%#x) = %d,%v, model %d,%v", step, k, v, ok, w, wok)
		}
	}
}

// runIndexOps drives the table and a Go map with one op sequence, two
// bytes per op: the opcode (put, delete, or get; the high bits are the
// value) and the key's index in indexKeys.
func runIndexOps(t testing.TB, ops []byte) {
	var tb table
	ref := map[uint64]uint32{}
	for step := 0; len(ops) >= 2; ops, step = ops[2:], step+1 {
		k := indexKeys[int(ops[1])%len(indexKeys)]
		switch v := uint32(ops[0] >> 2); ops[0] % 3 {
		case 0:
			tb.put(k, v)
			ref[k] = v
		case 1:
			_, want := ref[k]
			if got := tb.del(k); got != want {
				t.Fatalf("step %d: del(%#x) = %v, model %v", step, k, got, want)
			}
			delete(ref, k)
		case 2:
			v, ok := tb.get(k)
			if w, wok := ref[k]; ok != wok || v != w {
				t.Fatalf("step %d: get(%#x) = %d,%v, model %d,%v", step, k, v, ok, w, wok)
			}
		}
		checkTable(t, step, &tb, ref)
	}
}

func indexSeeds() [][]byte {
	var seeds [][]byte
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(20+rng.Intn(300)))
		rng.Read(ops)
		seeds = append(seeds, ops)
	}
	return seeds
}

// TestIndexMatchesModel runs seeded random put/get/delete sequences over
// the colliding key pool against a map.
func TestIndexMatchesModel(t *testing.T) {
	for _, ops := range indexSeeds() {
		runIndexOps(t, ops)
	}
}

// TestIndexWrapAroundDeletes fills a cluster that wraps past the end of
// the cell array and deletes its keys in every order: backward-shift
// deletion must pull each wrapped key back across the array's end when,
// and only when, its home lies at or before the hole.
func TestIndexWrapAroundDeletes(t *testing.T) {
	wrap := collidingKeys(8, 7, 3)                  // homes at 7: cells 7, 0, 1
	keys := append(wrap, collidingKeys(8, 0, 2)...) // homes at 0: pushed to 2, 3
	perm := []int{0, 1, 2, 3, 4}
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			var tb table
			ref := map[uint64]uint32{}
			for i, key := range keys {
				tb.put(key, uint32(i))
				ref[key] = uint32(i)
			}
			if len(tb.cells) != 8 {
				t.Fatalf("table grew to %d cells; the scenario needs 8", len(tb.cells))
			}
			for step, i := range perm {
				if !tb.del(keys[i]) {
					t.Fatalf("order %v: del(%#x) missed", perm, keys[i])
				}
				delete(ref, keys[i])
				for _, k := range keys {
					v, ok := tb.get(k)
					if w, wok := ref[k]; ok != wok || v != w {
						t.Fatalf("order %v, step %d: get(%#x) = %d,%v, model %d,%v", perm, step, k, v, ok, w, wok)
					}
				}
				checkTable(t, step, &tb, ref)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
}

func FuzzIndexOps(f *testing.F) {
	for _, ops := range indexSeeds()[:16] {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2*1024 {
			ops = ops[:2*1024]
		}
		runIndexOps(t, ops)
	})
}
