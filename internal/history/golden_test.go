package history

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/appendbinary.golden from this tree")

const goldenPath = "testdata/appendbinary.golden"

// imageDigest drives one op sequence of the differential test and hashes
// the history's AppendBinary image after every op.
func imageDigest(t testing.TB, ops []byte) string {
	d := &differ{t: t, h: New(), ref: newRef(), rcur: make([]int, 3)}
	sum := sha256.New()
	for ; len(ops) >= opBytes; ops = ops[opBytes:] {
		d.apply(ops[0], ops[1], ops[2], ops[3], 12)
		sum.Write(d.h.AppendBinary(nil))
		d.step++
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestAppendBinaryMatchesGolden pins the history image byte for byte:
// testdata/appendbinary.golden holds, per seeded op sequence of the
// differential test, a digest of the image after every op, recorded from
// the map-indexed arena with the adjacency, mark and flags inside the
// vertex. Engine snapshots, WAL records and durable images embed this
// encoding, so a layout change inside the arena must leave it unchanged.
// Rewrite it only deliberately, with -update-golden.
func TestAppendBinaryMatchesGolden(t *testing.T) {
	seeds := opSeeds()[:64]
	if *updateGolden {
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, ops := range seeds {
			w.WriteString(imageDigest(t, ops) + "\n")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for ; sc.Scan(); i++ {
		if i >= len(seeds) {
			t.Fatalf("golden file has more than %d digests", len(seeds))
		}
		if got := imageDigest(t, seeds[i]); got != sc.Text() {
			t.Fatalf("op sequence %d: image digest %s, golden %s", i, got, sc.Text())
		}
	}
	if i != len(seeds) {
		t.Fatalf("golden file has %d digests, want %d", i, len(seeds))
	}
}
