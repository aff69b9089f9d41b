package runtime

import (
	"testing"

	"flexcast/amcast"
)

// BenchmarkBatcherAdd measures the per-envelope cost of the output
// batcher with batches filling to the cap (batch cap 64, two
// destinations): no allocations once each destination's buffer has
// grown to the cap.
func BenchmarkBatcherAdd(b *testing.B) {
	batcher := NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {}, 64)
	dsts := []amcast.NodeID{amcast.GroupNode(1), amcast.GroupNode(2)}
	e := amcast.Envelope{Kind: amcast.KindAck, From: amcast.GroupNode(3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batcher.Add(dsts[i&1], e)
	}
	batcher.FlushAll()
}

// BenchmarkBatcherAddSmallFlush measures the batcher's *common* regime
// under load — chunk-end flushes every few envelopes (the committed
// benchmark reports avg batches of 1.4-5): the destination's buffer is
// refilled in place, no allocation per batch.
func BenchmarkBatcherAddSmallFlush(b *testing.B) {
	batcher := NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {}, 64)
	dst := amcast.GroupNode(1)
	e := amcast.Envelope{Kind: amcast.KindAck, From: amcast.GroupNode(3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batcher.Add(dst, e)
		if i%4 == 3 {
			batcher.FlushAll()
		}
	}
	batcher.FlushAll()
}

// BenchmarkTakeBacklog measures the chunk pop under backlog — the
// control-priority selection path — with the reusable chunk buffer and
// scratch: zero allocations per chunk in steady state.
func BenchmarkTakeBacklog(b *testing.B) {
	const depth = 512
	n := takeNode(64)
	mixed := make([]amcast.Envelope, depth)
	for i := range mixed {
		k := amcast.KindMsg
		if i%3 == 0 {
			k = amcast.KindAck
		}
		mixed[i] = env(k, amcast.GroupNode(amcast.GroupID(1+i%4)), uint64(i+1))
	}
	buf := make([]amcast.Envelope, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(n.queue) < 128 {
			b.StopTimer()
			n.queue = append(n.queue[:0], mixed...)
			b.StartTimer()
		}
		buf = n.take(buf)
	}
}
