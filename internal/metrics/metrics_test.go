package metrics

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

func fwd(id uint64) amcast.Envelope {
	return amcast.Envelope{
		Kind: amcast.KindFwd,
		From: amcast.GroupNode(1),
		Msg:  amcast.Message{ID: amcast.MsgID(id), Dst: []amcast.GroupID{2}, Payload: []byte("x")},
	}
}

func ack(id uint64) amcast.Envelope {
	return amcast.Envelope{Kind: amcast.KindAck, From: amcast.GroupNode(1),
		Msg: amcast.Message{ID: amcast.MsgID(id), Dst: []amcast.GroupID{2}}}
}

func TestSendAccounting(t *testing.T) {
	var c NodeCounters
	e := fwd(1)
	c.OnReceive(e)
	if size := uint64(codec.Size(e)); c.EnvsReceived != 1 || c.BytesReceived != size || c.PayloadReceived != 1 {
		t.Fatalf("receiver counters = %+v", c)
	}
}

func TestAuxiliaryKindsNotPayload(t *testing.T) {
	var c NodeCounters
	c.OnReceive(ack(1))
	if c.PayloadReceived != 0 {
		t.Fatalf("ACK counted as payload: %d", c.PayloadReceived)
	}
}

func TestOverhead(t *testing.T) {
	// 4 payload messages received, 3 delivered => overhead 25%; the ACKs
	// are not payload and stay out of the denominator.
	c := NodeCounters{Delivered: 3}
	for i := 0; i < 4; i++ {
		c.OnReceive(fwd(uint64(i)))
		c.OnReceive(ack(uint64(i)))
	}
	if got := c.Overhead(); got != 0.25 {
		t.Fatalf("overhead = %v, want 0.25", got)
	}
}

func TestOverheadEdgeCases(t *testing.T) {
	var c NodeCounters
	if c.Overhead() != 0 {
		t.Fatal("empty counters must report zero overhead")
	}
	// Delivered > received (flush or locally originated deliveries) clamps
	// to zero rather than going negative.
	c.PayloadReceived = 1
	c.Delivered = 2
	if c.Overhead() != 0 {
		t.Fatalf("overhead = %v, want 0 (clamped)", c.Overhead())
	}
}

func TestAvgReceivedSize(t *testing.T) {
	var c NodeCounters
	e := fwd(1)
	c.OnReceive(e)
	c.OnReceive(e)
	want := float64(codec.Size(e))
	if got := c.AvgReceivedSize(); got != want {
		t.Fatalf("avg size = %v, want %v", got, want)
	}
	var zero NodeCounters
	if zero.AvgReceivedSize() != 0 {
		t.Fatal("empty avg size not zero")
	}
}
