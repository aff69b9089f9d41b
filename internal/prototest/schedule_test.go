package prototest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/trace"
)

// scheduleGroups is the pin test's C-DAG: FlexCast over four groups, so
// the schedules carry MSG, ACK and NOTIF traffic on FIFO links.
var scheduleGroups = []amcast.GroupID{1, 2, 3, 4}

func scheduleConfig() RandomConfig {
	ov := overlay.MustCDAG(scheduleGroups)
	return RandomConfig{
		Groups:   scheduleGroups,
		Clients:  3,
		Messages: 8,
		Route: func(m amcast.Message) []amcast.NodeID {
			return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
		},
		Factory: func(g amcast.GroupID) amcast.Engine {
			return core.MustNew(core.Config{Group: g, Overlay: ov})
		},
		Seed:   17,
		Jitter: 1500,
	}
}

// seqDigest hashes every group's delivery sequence, in group order.
func seqDigest(seq func(amcast.GroupID) []amcast.MsgID) string {
	h := sha256.New()
	for _, g := range scheduleGroups {
		ids := seq(g)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(g)<<32|uint64(len(ids))))
		for _, id := range ids {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spy counts what a live engine sends and logs what it delivers.
type spy struct {
	amcast.SnapshotEngine
	sends *int
	seq   *[]amcast.MsgID
}

func (s spy) OnEnvelope(env amcast.Envelope) []amcast.Output {
	outs := s.SnapshotEngine.OnEnvelope(env)
	*s.sends += len(outs)
	return outs
}

func (s spy) TakeDeliveries() []amcast.Delivery {
	dels := s.SnapshotEngine.TakeDeliveries()
	for _, d := range dels {
		*s.seq = append(*s.seq, d.Msg.ID)
	}
	return dels
}

// TestSchedulesPinned pins one small run per schedule source: a digest
// of the per-group delivery sequences and the number of recorded sends
// to groups (for snapshot replay, which returns no recorder, the live
// engines' outputs). Any change to what a source moves next, or to what a step
// sends, moves them; a change meant to alter a schedule re-takes them.
func TestSchedulesPinned(t *testing.T) {
	recorded := func(rec *trace.Recorder) (string, int) { return seqDigest(rec.Sequence), rec.Sends() }
	runs := []struct {
		name   string
		run    func(t *testing.T) (string, int)
		digest string
		sends  int
	}{
		{"scripted", func(t *testing.T) (string, int) {
			cfg := scheduleConfig()
			r := NewRouter(t, scheduleGroups, cfg.Factory)
			for i, dst := range [][]amcast.GroupID{{1, 4}, {2, 3}, {3, 4}, {1, 2, 3, 4}} {
				m := Msg(uint64(i+1), dst...)
				r.Multicast(cfg.Route(m)[0].Group(), m)
			}
			for r.LinkDepth(1, 4) > 0 {
				r.StepAny(1, 4)
			}
			r.Drain()
			return seqDigest(r.Seq), r.Recorder.Sends()
		}, "e416fbe6f5b2f82534e0217664fc369bc3f4557f4570a2896d71e8aab86b1ea3", 13},
		{"random", func(t *testing.T) (string, int) { return recorded(RunRandom(t, scheduleConfig())) },
			"58c0ef6b574ae95bf5c9b4753ad38961b9a5a32cbbd9647d7d33b3bbde90ade0", 82},
		{"random-nofifo", func(t *testing.T) (string, int) {
			// Skeen's protocol, which does not assume FIFO links.
			cfg := scheduleConfig()
			cfg.Route = skeenRoute
			cfg.Factory = skeenFactory(scheduleGroups)
			return recorded(RunRandomNoFIFO(t, cfg))
		}, "a9843b5b060ee56556bc77e3d68676c649e1aef30b38238bc3d0f7b940633df4", 135},
		{"chunked", func(t *testing.T) (string, int) { return recorded(RunChunked(t, scheduleConfig(), 3)) },
			"6d1ccbd7050138449d9e989db69e0f7363df5ba5d8f4df1b4e4abd5c43e7318c", 99},
		{"snapshot-replay", func(t *testing.T) (string, int) {
			cfg := scheduleConfig()
			seqs := make(map[amcast.GroupID]*[]amcast.MsgID)
			sends := 0
			factory := cfg.Factory
			cfg.Factory = func(g amcast.GroupID) amcast.Engine {
				eng := factory(g).(amcast.SnapshotEngine)
				if seqs[g] != nil {
					return eng // a replay engine
				}
				seqs[g] = new([]amcast.MsgID)
				return spy{SnapshotEngine: eng, sends: &sends, seq: seqs[g]}
			}
			RunSnapshotReplay(t, cfg, 10)
			return seqDigest(func(g amcast.GroupID) []amcast.MsgID { return *seqs[g] }), sends
		}, "58c0ef6b574ae95bf5c9b4753ad38961b9a5a32cbbd9647d7d33b3bbde90ade0", 58},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			digest, sends := r.run(t)
			if digest != r.digest || sends != r.sends {
				t.Fatalf("delivery digest %s with %d sends, pinned %s with %d", digest, sends, r.digest, r.sends)
			}
		})
	}
}
