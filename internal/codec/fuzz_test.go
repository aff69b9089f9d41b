package codec

import (
	"bytes"
	"testing"

	"flexcast/amcast"
)

// FuzzUnmarshalRoundTrip asserts the codec's canonical-encoding
// property on arbitrary byte strings: any buffer that decodes must
// re-encode to exactly the same bytes (the encoding has no redundancy:
// varints are minimal and optional sections are determined by the
// envelope kind), and Size must agree with the wire length. Run with
// `go test -fuzz=FuzzUnmarshalRoundTrip ./internal/codec` to explore;
// the seed corpus below is exercised by plain `go test`.
func FuzzUnmarshalRoundTrip(f *testing.F) {
	seed := []amcast.Envelope{
		{Kind: amcast.KindRequest, From: amcast.ClientNode(2), Msg: amcast.Message{
			ID: amcast.NewMsgID(2, 9), Sender: amcast.ClientNode(2),
			Dst: []amcast.GroupID{1, 5}, Payload: []byte("tx"),
		}},
		{Kind: amcast.KindMsg, From: amcast.GroupNode(1), Msg: amcast.Message{
			ID: 3, Dst: []amcast.GroupID{1, 2}, Payload: []byte{0, 1, 2},
		}, Hist: &amcast.HistDelta{
			Nodes: []amcast.HistNode{{ID: 3, Dst: []amcast.GroupID{1, 2}}},
			Edges: []amcast.HistEdge{{From: 1, To: 3}},
		}, NotifList: []amcast.NotifPair{{Notifier: 1, Notified: 4, Epoch: 1}}},
		{Kind: amcast.KindAck, From: amcast.GroupNode(4), Msg: amcast.Message{
			ID: 3, Dst: []amcast.GroupID{1, 2},
		}, AckCovers: []amcast.AckCover{{Notifier: 1, Epoch: 1}, {Notifier: 2, Epoch: 3}}},
		{Kind: amcast.KindNotif, From: amcast.GroupNode(2), Msg: amcast.Message{
			ID: 3, Dst: []amcast.GroupID{1, 2},
		}, CertEpoch: 1},
		{Kind: amcast.KindNotif, From: amcast.GroupNode(2), Msg: amcast.Message{
			ID: 3, Dst: []amcast.GroupID{1, 2},
		}, CertEpoch: 2}, // re-certification of the same message
		{Kind: amcast.KindTS, From: amcast.GroupNode(9), Msg: amcast.Message{
			ID: 8, Dst: []amcast.GroupID{9},
		}, TS: 42, TSFrom: 9},
		{Kind: amcast.KindReply, From: amcast.GroupNode(5), Msg: amcast.Message{
			ID: 8, Dst: []amcast.GroupID{5},
		}, TS: 7, Result: amcast.ResultAborted, Watermark: 8},
		{Kind: amcast.KindRead, From: amcast.ClientNode(1), Msg: amcast.Message{
			ID: 11, Sender: amcast.ClientNode(1), Dst: []amcast.GroupID{3},
			Flags: amcast.FlagRead, Payload: []byte("ro"),
		}, TS: 5},
		{Kind: amcast.KindReply, From: amcast.GroupNode(3), Msg: amcast.Message{
			ID: 11, Sender: amcast.ClientNode(1), Dst: []amcast.GroupID{3},
			Flags: amcast.FlagRead,
		}, Result: amcast.ResultCommitted, Watermark: 6, Value: -1},
		{Kind: amcast.KindFwd, From: amcast.GroupNode(8), Msg: amcast.Message{
			ID: 1, Dst: []amcast.GroupID{8, 9}, Payload: []byte("fwd"),
		}},
		// Session-multiplexed request and its reply (the session-id
		// vocabulary: FlagSession gates a session varint ≥ 1 after flags).
		{Kind: amcast.KindRequest, From: amcast.ClientNode(7), Msg: amcast.Message{
			ID: amcast.NewMsgID(7, 3), Sender: amcast.ClientNode(7),
			Dst: []amcast.GroupID{2}, Flags: amcast.FlagSession, Session: 98765,
			Payload: []byte("mux"),
		}},
		{Kind: amcast.KindReply, From: amcast.GroupNode(2), Msg: amcast.Message{
			ID: amcast.NewMsgID(7, 3), Sender: amcast.ClientNode(7),
			Dst: []amcast.GroupID{2}, Flags: amcast.FlagSession, Session: 1,
		}, TS: 4, Result: amcast.ResultCommitted, Watermark: 5},
	}
	for _, env := range seed {
		f.Add(Marshal(env))
	}
	// Batch frames: the same canonical round-trip property must hold for
	// the batched encoding (strict inner framing, oversized rejection).
	f.Add(MarshalBatch(seed[:1]))
	f.Add(MarshalBatch(seed[:3]))
	f.Add(MarshalBatch(seed))
	// Malformed probes: truncations, bad kind, hostile counts, empty and
	// oversized batches.
	f.Add([]byte{})
	f.Add([]byte{0xEE})
	f.Add([]byte{byte(amcast.KindMsg), 0x01, 0x01, 0x01, 0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{BatchKind, 0x00})
	f.Add([]byte{BatchKind, 0xFF, 0xFF, 0xFF, 0x7F})
	for _, frame := range hostileFrames {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if IsBatch(data) {
			envs, err := UnmarshalBatch(data)
			if err != nil {
				return // rejected input: fine, as long as we did not panic
			}
			if len(envs) == 0 || len(envs) > MaxBatchEnvelopes {
				t.Fatalf("accepted batch of %d envelopes", len(envs))
			}
			re := MarshalBatch(envs)
			if !bytes.Equal(re, data) {
				t.Fatalf("batch round trip not canonical:\n in  %x\n out %x", data, re)
			}
			if sized := appendBatchSized(nil, envs); !bytes.Equal(re, sized) {
				t.Fatalf("batch encoding differs from the sized one:\n got  %x\n want %x", re, sized)
			}
			if got := BatchSize(envs); got != len(data) {
				t.Fatalf("BatchSize = %d, wire length = %d", got, len(data))
			}
			return
		}
		env, err := Unmarshal(data)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		re := Marshal(env)
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip not canonical:\n in  %x\n out %x\n env %+v", data, re, env)
		}
		if got := Size(env); got != len(data) {
			t.Fatalf("Size = %d, wire length = %d", got, len(data))
		}
	})
}
