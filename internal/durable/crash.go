package durable

import (
	"bytes"
	"errors"
	"fmt"

	"flexcast/amcast"
)

// Image is a crashed engine's directory, as a kill -9 leaves it, and
// what a recovery from it must reproduce: State, the engine's canonical
// state (Canonical); Since, the inputs after its last checkpoint, which
// a recovery replays (<0: not known); Torn, a WAL that ends in a torn
// record.
type Image struct {
	Dir   string
	State []byte
	Since int
	Torn  bool
}

// Canonical returns a snapshot's canonical bytes: an engine's state.
func Canonical(snap amcast.Snapshot) ([]byte, error) {
	bs, ok := snap.(amcast.BinarySnapshot)
	if !ok {
		return nil, fmt.Errorf("durable: snapshot %T has no binary form", snap)
	}
	return bs.MarshalBinary()
}

// Crash takes e down and returns its image, with any error. The state is
// fingerprinted first (e's owner has stopped stepping it), then e is
// closed: appends already sit in the page cache, the crash image, and
// Close waits for the persist job in flight, so the image is a finished
// directory (TestCrashAtEveryPersistStep covers the unfinished ones).
// With torn, a partial record is appended to the WAL: the torn tail of a
// crash mid-append.
func Crash(e *Engine, torn bool) (*Image, error) {
	state, err := Canonical(e.Snapshot())
	img := &Image{Dir: e.opts.Dir, State: state, Since: e.sinceSnap}
	err = errors.Join(err, e.Close())
	if torn {
		_, terr := TearTail(img.Dir, nil)
		img.Torn, err = terr == nil, errors.Join(err, terr)
	}
	if err != nil {
		err = fmt.Errorf("durable: crash of group %d: %w", e.Group(), err)
	}
	return img, err
}

// Recover wraps fresh, a newly built engine, over img's directory with
// opts (Dir is img's) and audits the recovery: a torn tail is discarded
// exactly when the image has one, the replay stays within the checkpoint
// cadence and, where the image knows it, replays exactly its inputs since
// the last checkpoint, and the recovered state equals img.State byte for
// byte. A recovery that fails an audit is closed.
func Recover(fresh amcast.SnapshotEngine, img *Image, opts Options) (*Engine, error) {
	opts.Dir = img.Dir
	e, err := Wrap(fresh, opts)
	if err != nil {
		return nil, err
	}
	g, st, every := e.Group(), e.stats, e.opts.SnapshotEvery
	got, err := Canonical(e.Snapshot())
	switch {
	case err != nil:
	case img.Torn != (st.TornTailBytes > 0):
		err = fmt.Errorf("durable: group %d recovery discarded a torn tail of %d bytes from an image torn=%t", g, st.TornTailBytes, img.Torn)
	case every > 0 && st.ReplayedEnvelopes > every:
		err = fmt.Errorf("durable: recovery of group %d replayed %d envelopes against a snapshot cadence of %d — snapshot age does not bound recovery",
			g, st.ReplayedEnvelopes, every)
	case img.Since >= 0 && st.ReplayedEnvelopes != img.Since:
		err = fmt.Errorf("durable: recovery of group %d replayed %d envelopes, but %d were appended since the last checkpoint",
			g, st.ReplayedEnvelopes, img.Since)
	case !bytes.Equal(got, img.State):
		err = fmt.Errorf("durable: recovery of group %d diverged from the crashed engine's final state (%d vs %d snapshot bytes)",
			g, len(got), len(img.State))
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}
