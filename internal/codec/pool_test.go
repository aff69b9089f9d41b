package codec

import (
	"bytes"
	"reflect"
	"testing"

	"flexcast/amcast"
)

func TestFramePoolRoundTrip(t *testing.T) {
	f := GetFrame(100)
	if len(f.B) != 0 || cap(f.B) < 100 {
		t.Fatalf("GetFrame(100): len %d cap %d", len(f.B), cap(f.B))
	}
	f.B = append(f.B, 1, 2, 3)
	f.Release()
	again := GetFrame(10)
	if len(again.B) != 0 {
		t.Fatalf("recycled frame has len %d", len(again.B))
	}
	again.Release()

	// Oversized buffers are dropped, the wrapper recycled.
	big := GetFrame(maxPooledBuf + 1)
	big.B = big.B[:cap(big.B)]
	big.Release()
}

// TestControlFrameDoesNotAlias proves the decode-path recycling is
// sound: a decoded control frame shares no bytes with its frame buffer,
// so clobbering the buffer after Release leaves the envelopes intact.
func TestControlFrameDoesNotAlias(t *testing.T) {
	envs := []amcast.Envelope{
		{Kind: amcast.KindAck, From: amcast.GroupNode(2),
			Msg:       amcast.Message{ID: 7, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 2}},
			Hist:      &amcast.HistDelta{Nodes: []amcast.HistNode{{ID: 7, Dst: []amcast.GroupID{1, 2}}}},
			NotifList: []amcast.NotifPair{{Notifier: 1, Notified: 3, Epoch: 1}},
			AckCovers: []amcast.AckCover{{Notifier: 1, Epoch: 1}}},
		{Kind: amcast.KindTS, From: amcast.GroupNode(3),
			Msg: amcast.Message{ID: 9, Sender: amcast.ClientNode(1), Dst: []amcast.GroupID{3}},
			TS:  42, TSFrom: 3},
	}
	frame := MarshalBatch(envs)
	f := GetFrame(len(frame))
	f.B = append(f.B, frame...)
	decoded, err := DecodeFrame(f.B)
	if err != nil {
		t.Fatal(err)
	}
	if FrameAliases(decoded) {
		t.Fatal("control frame reported as aliasing")
	}
	for i := range f.B {
		f.B[i] = 0xFF
	}
	if !reflect.DeepEqual(decoded, envs) {
		t.Fatalf("decoded envelopes corrupted by buffer reuse:\n%+v\nwant\n%+v", decoded, envs)
	}
	f.Release()

	// A payload frame must report aliasing (the buffer stays owned).
	pay := []amcast.Envelope{{Kind: amcast.KindMsg, From: amcast.GroupNode(1),
		Msg: amcast.Message{ID: 1, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1},
			Payload: []byte("hello")}}}
	pframe := MarshalBatch(pay)
	pdec, err := DecodeFrame(pframe)
	if err != nil {
		t.Fatal(err)
	}
	if !FrameAliases(pdec) {
		t.Fatal("payload frame not reported as aliasing")
	}
	if !bytes.Equal(pdec[0].Msg.Payload, []byte("hello")) {
		t.Fatal("payload corrupted")
	}
}

// TestDetachPayloads verifies the oversized-buffer escape hatch: after
// detaching, the envelopes share nothing with the frame.
func TestDetachPayloads(t *testing.T) {
	pay := []amcast.Envelope{{Kind: amcast.KindMsg, From: amcast.GroupNode(1),
		Msg: amcast.Message{ID: 1, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1},
			Payload: []byte("hello")}}}
	frame := MarshalBatch(pay)
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	DetachPayloads(decoded)
	for i := range frame {
		frame[i] = 0xAA
	}
	if !bytes.Equal(decoded[0].Msg.Payload, []byte("hello")) {
		t.Fatalf("detached payload corrupted by frame reuse: %q", decoded[0].Msg.Payload)
	}
}

func TestAppendBatchMatchesMarshalBatch(t *testing.T) {
	envs := []amcast.Envelope{
		{Kind: amcast.KindRequest, From: amcast.ClientNode(0),
			Msg: amcast.Message{ID: 3, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 4}, Payload: []byte{1, 2}}},
		{Kind: amcast.KindAck, From: amcast.GroupNode(4),
			Msg: amcast.Message{ID: 3, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 4}}},
	}
	want := MarshalBatch(envs)
	f := GetFrame(BatchSize(envs))
	f.B = AppendBatch(f.B, envs)
	if !bytes.Equal(f.B, want) {
		t.Fatalf("AppendBatch != MarshalBatch:\n%x\n%x", f.B, want)
	}
	if len(f.B) != BatchSize(envs) {
		t.Fatalf("BatchSize %d != encoded length %d", BatchSize(envs), len(f.B))
	}
	f.Release()
}
