package prototest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"flexcast/amcast"
)

// BoundaryIDs returns message ids on every edge an id index can
// partition on: the first and last sequence numbers of small and large
// power-of-two blocks, the largest sequence number (1<<40 - 1), and the
// same sequence numbers under the first, second and largest client.
// The order is scrambled (a fixed permutation), so an index sees them
// neither ascending nor grouped by client.
func BoundaryIDs() []amcast.MsgID {
	seqs := []uint64{0, 1, 63, 64, 65, 511, 512, 4095, 4096, 4097, 1<<24 - 1, 1 << 24, 1 << 37, 1 << 38, 1<<40 - 2, 1<<40 - 1}
	clients := []int{0, 1, 1<<24 - 1}
	ids := make([]amcast.MsgID, 0, len(seqs)*len(clients))
	for _, c := range clients {
		for _, s := range seqs {
			ids = append(ids, amcast.NewMsgID(c, s))
		}
	}
	// Stride through the list by a step coprime to its length.
	out := make([]amcast.MsgID, len(ids))
	for i := range ids {
		out[i] = ids[(i*7)%len(ids)]
	}
	return out
}

// MatchGolden pins encodings byte for byte: the file at path holds one
// hex SHA-256 per encoding, one a line. With update set it is rewritten
// from encodings first — only ever deliberately.
func MatchGolden(t *testing.T, path string, update bool, encodings [][]byte) {
	t.Helper()
	if update {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, enc := range encodings {
			sum := sha256.Sum256(enc)
			w.WriteString(hex.EncodeToString(sum[:]) + "\n")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for ; sc.Scan(); i++ {
		if i >= len(encodings) {
			t.Fatalf("golden file has more than %d digests", len(encodings))
		}
		sum := sha256.Sum256(encodings[i])
		if got := hex.EncodeToString(sum[:]); got != sc.Text() {
			t.Fatalf("encoding %d (%d bytes): digest %s, golden %s", i, len(encodings[i]), got, sc.Text())
		}
	}
	if i != len(encodings) {
		t.Fatalf("golden file has %d digests, want %d", i, len(encodings))
	}
}
