package prototest

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
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
	digests := make([]string, len(encodings))
	for i, enc := range encodings {
		sum := sha256.Sum256(enc)
		digests[i] = hex.EncodeToString(sum[:])
	}
	if update {
		if err := os.WriteFile(path, []byte(strings.Join(digests, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := range min(len(golden), len(digests)) {
		if digests[i] != golden[i] {
			t.Fatalf("encoding %d (%d bytes): digest %s, golden %s", i, len(encodings[i]), digests[i], golden[i])
		}
	}
	if len(golden) != len(digests) {
		t.Fatalf("golden file has %d digests, want %d", len(golden), len(digests))
	}
}
