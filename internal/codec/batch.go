package codec

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
)

// BatchKind is the discriminator byte of a batch frame. Envelope kinds
// occupy 1..7, so a receiver can tell a batch frame from a single
// envelope by its first byte, which is what keeps the TCP framing
// backward compatible: old frames are single envelopes, new frames may
// be batches.
const BatchKind byte = 0x40

// MaxBatchEnvelopes bounds the number of envelopes a single batch frame
// may carry. The runtime batcher never builds batches anywhere near this
// large; the limit guards the decoder against corrupt or hostile frames.
const MaxBatchEnvelopes = 1 << 16

// Batch layout (integers are unsigned varints):
//
//	BatchKind(1 byte) | count | (len envelope-bytes)...
//
// Each inner envelope is a complete Marshal encoding, length-prefixed so
// a decoder can skip through the frame without parsing. The encoding is
// canonical like the single-envelope format: minimal varints, count >= 1,
// and every inner envelope must itself decode canonically, so any
// accepted batch re-encodes to exactly the same bytes.

// MarshalBatch encodes a non-empty envelope batch as one frame.
func MarshalBatch(envs []amcast.Envelope) []byte {
	return AppendBatch(make([]byte, 0, BatchSize(envs)), envs)
}

// AppendBatch encodes a batch frame onto buf, equivalent to
// append(buf, MarshalBatch(envs)...) without the intermediate
// allocation — the transport's pooled-buffer encode path.
func AppendBatch(buf []byte, envs []amcast.Envelope) []byte {
	buf = append(buf, BatchKind)
	buf = binary.AppendUvarint(buf, uint64(len(envs)))
	for _, env := range envs {
		at := len(buf)
		buf = putLength(Append(append(buf, 0), env), at)
	}
	return buf
}

// putLength writes the length of what follows the one-byte slot at
// buf[at] into the slot, first widening the slot in place when the length
// needs a longer varint — each envelope is encoded once, not sized first.
func putLength(buf []byte, at int) []byte {
	n := len(buf) - at - 1
	if w := uvarintLen(uint64(n)); w > 1 {
		buf = append(buf, make([]byte, w-1)...)
		copy(buf[at+w:], buf[at+1:at+1+n])
	}
	binary.PutUvarint(buf[at:], uint64(n))
	return buf
}

// Append encodes env onto buf, equivalent to append(buf, Marshal(env)...)
// without the intermediate allocation.
func Append(buf []byte, env amcast.Envelope) []byte {
	buf = append(buf, byte(env.Kind))
	buf = binary.AppendUvarint(buf, uint64(uint32(env.From)))
	buf = appendMessage(buf, env.Msg, hasPayload(env.Kind))
	if hasHist(env.Kind) {
		buf = appendHist(buf, env.Hist)
	}
	if hasCertEpoch(env.Kind) {
		buf = binary.AppendUvarint(buf, env.CertEpoch)
	}
	if hasNotifList(env.Kind) {
		buf = binary.AppendUvarint(buf, uint64(len(env.NotifList)))
		for _, p := range env.NotifList {
			buf = binary.AppendUvarint(buf, uint64(uint32(p.Notifier)))
			buf = binary.AppendUvarint(buf, uint64(uint32(p.Notified)))
			buf = binary.AppendUvarint(buf, p.Epoch)
		}
	}
	if hasAckCovers(env.Kind) {
		buf = binary.AppendUvarint(buf, uint64(len(env.AckCovers)))
		for _, c := range env.AckCovers {
			buf = binary.AppendUvarint(buf, uint64(uint32(c.Notifier)))
			buf = binary.AppendUvarint(buf, c.Epoch)
		}
	}
	if hasTS(env.Kind) {
		buf = binary.AppendUvarint(buf, env.TS)
		buf = binary.AppendUvarint(buf, uint64(uint32(env.TSFrom)))
	}
	if hasResult(env.Kind) {
		buf = append(buf, env.Result)
	}
	if hasWatermark(env.Kind) {
		buf = binary.AppendUvarint(buf, env.Watermark)
	}
	if hasValue(env.Kind, env.Msg.Flags) {
		buf = binary.AppendUvarint(buf, zigzag(env.Value))
	}
	return buf
}

// BatchSize returns len(MarshalBatch(envs)) without allocating.
func BatchSize(envs []amcast.Envelope) int {
	n := 1 + uvarintLen(uint64(len(envs)))
	for _, env := range envs {
		s := Size(env)
		n += uvarintLen(uint64(s)) + s
	}
	return n
}

// IsBatch reports whether an encoded frame is a batch frame.
func IsBatch(buf []byte) bool {
	return len(buf) > 0 && buf[0] == BatchKind
}

// DecodeFrame decodes one frame — a batch or a single envelope,
// discriminated by the first byte. Every consumer of mixed frames (the
// TCP transport, Paxos decided values in internal/smr) goes through it,
// so frame discrimination lives in exactly one place.
func DecodeFrame(buf []byte) ([]amcast.Envelope, error) {
	if IsBatch(buf) {
		return UnmarshalBatch(buf)
	}
	env, err := Unmarshal(buf)
	if err != nil {
		return nil, err
	}
	return []amcast.Envelope{env}, nil
}

// UnmarshalBatch decodes a batch frame, validating structure, canonical
// inner encodings and the batch-size limit, and rejecting trailing
// garbage.
func UnmarshalBatch(buf []byte) ([]amcast.Envelope, error) {
	d := &decoder{buf: buf}
	if d.byte() != BatchKind {
		return nil, fmt.Errorf("codec: not a batch frame")
	}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, fmt.Errorf("codec: empty batch")
	}
	if n > MaxBatchEnvelopes {
		return nil, fmt.Errorf("codec: batch of %d envelopes exceeds limit %d", n, MaxBatchEnvelopes)
	}
	if left := len(buf) - d.off; n > uint64(left/minEntry) {
		return nil, fmt.Errorf("codec: batch of %d envelopes exceeds the %d bytes left", n, left)
	}
	envs := make([]amcast.Envelope, 0, n)
	for i := uint64(0); i < n; i++ {
		size := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		raw := d.bytes(int(size))
		if d.err != nil {
			return nil, d.err
		}
		env, err := Unmarshal(raw)
		if err != nil {
			return nil, fmt.Errorf("codec: batch envelope %d: %w", i, err)
		}
		envs = append(envs, env)
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("codec: %d trailing bytes after batch", len(buf)-d.off)
	}
	return envs, nil
}
