package codec

import (
	"sync"

	"flexcast/amcast"
)

// Frame pooling for the encode/decode hot paths. Every wire frame used
// to cost one make([]byte, ...) on encode and one on decode; under
// sustained load that is two heap allocations (plus GC pressure) per
// batch. The transport borrows pooled frames here instead:
//
//   - encode: AppendBatch/Append into a pooled frame, write it, release
//     it — zero allocations per frame in steady state;
//   - decode: read the frame into a pooled buffer; if the decoded
//     envelopes do not alias it (control frames — the decoder only
//     retains sub-slices for message payloads), release frees both
//     wrapper and buffer for reuse. Payload frames Disown the buffer
//     (the envelopes own it now — exactly the allocation the unpooled
//     path made) and recycle just the wrapper.

// maxPooledBuf bounds the buffers kept by the pool: the occasional huge
// history diff should be returned to the GC, not pinned forever.
const maxPooledBuf = 64 << 10

// Frame is a reusable wire-frame buffer. Use B for the frame bytes
// (GetFrame hands it out empty); call Release or Disown exactly once.
type Frame struct{ B []byte }

var framePool = sync.Pool{New: func() any { return &Frame{} }}

// GetFrame returns a frame whose buffer has len 0 and capacity at least
// n, drawn from the pool when possible. Fresh buffers are allocated at
// exactly n: a frame that ends up Disowned (its payloads alias it) then
// pins no more bytes than the unpooled path allocated, and the pool's
// resident sizes converge on the traffic's real frame sizes.
func GetFrame(n int) *Frame {
	f := framePool.Get().(*Frame)
	if cap(f.B) < n {
		f.B = make([]byte, 0, n)
	}
	f.B = f.B[:0]
	return f
}

// Release returns the frame — wrapper and buffer — to the pool. The
// caller must not touch the frame afterwards.
func (f *Frame) Release() {
	if cap(f.B) > maxPooledBuf {
		f.B = nil // oversized: let the GC take the buffer, keep the wrapper
	}
	framePool.Put(f)
}

// Disown recycles only the wrapper: the buffer's ownership has moved to
// whatever was decoded from it (payload envelopes alias their frame).
func (f *Frame) Disown() {
	f.B = nil
	framePool.Put(f)
}

// FrameAliases reports whether any decoded envelope retains sub-slices
// of the frame it was decoded from: the decoder copies every section
// except message payloads, so a frame without payload bytes (pure
// control traffic — ACK/NOTIF/TS/REPLY) can be released immediately.
func FrameAliases(envs []amcast.Envelope) bool {
	for i := range envs {
		if len(envs[i].Msg.Payload) > 0 {
			return true
		}
	}
	return false
}

// DetachPayloads copies every payload out of its frame buffer so the
// frame can be Released even though it decoded payload envelopes — the
// escape hatch for a payload frame that landed in a pooled buffer much
// larger than itself, where pinning the buffer would waste more than
// the copies cost.
func DetachPayloads(envs []amcast.Envelope) {
	for i := range envs {
		if len(envs[i].Msg.Payload) > 0 {
			envs[i].Msg.Payload = append([]byte(nil), envs[i].Msg.Payload...)
		}
	}
}
