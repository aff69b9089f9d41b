package metrics

import (
	"sync/atomic"
	"testing"

	"flexcast/amcast"
)

// benchEnv is a representative two-destination payload message.
var benchEnv = amcast.Envelope{
	Kind: amcast.KindMsg,
	From: amcast.GroupNode(1),
	Msg:  amcast.Message{ID: amcast.NewMsgID(0, 1), Dst: []amcast.GroupID{1, 2}, Payload: make([]byte, 64)},
}

// benchOnSend models the TCP runtime's contention pattern: every
// connection goroutine records traffic for its own sender (distinct
// client nodes) into a small shared set of group receivers, so the
// per-node atomics only contend on the shared receivers.
func benchOnSend(b *testing.B, r *Registry) {
	var worker atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		from := amcast.ClientNode(int(worker.Add(1)))
		i := 0
		for pb.Next() {
			i++
			r.OnSend(from, amcast.GroupNode(amcast.GroupID(1+i%4)), benchEnv)
		}
	})
}

func benchOnDeliver(b *testing.B, r *Registry) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			r.OnDeliver(amcast.GroupID(1 + i%4))
		}
	})
}

func BenchmarkRegistryOnSend(b *testing.B)    { benchOnSend(b, NewRegistry()) }
func BenchmarkRegistryOnDeliver(b *testing.B) { benchOnDeliver(b, NewRegistry()) }
