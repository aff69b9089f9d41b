package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashImageAudits: a crash image recovers byte for byte, and each
// audit of Recover refuses the recovery it exists for, closing it, with
// the image left as it was for the next.
func TestCrashImageAudits(t *testing.T) {
	live, err := Wrap(newCoreEngine(t), opts(t.TempDir(), 16))
	if err != nil {
		t.Fatal(err)
	}
	feed(live, 1, 20)
	img, err := Crash(live, false)
	if err != nil {
		t.Fatal(err)
	}
	if img.Since != 4 || img.Torn || len(img.State) == 0 {
		t.Fatalf("image of 20 inputs at a cadence of 16: %+v", img)
	}
	for _, c := range []struct {
		name, want string
		spoil      func(img *Image, o *Options)
	}{
		{"torn tail not discarded", "torn", func(img *Image, _ *Options) { img.Torn = true }},
		{"replay over the cadence", "snapshot age does not bound recovery", func(_ *Image, o *Options) { o.SnapshotEvery = 3 }},
		{"replay not exact", "were appended since the last checkpoint", func(img *Image, _ *Options) { img.Since++ }},
		{"state lost", "diverged from the crashed engine's final state", func(img *Image, _ *Options) { img.State = img.State[1:] }},
	} {
		spoilt, o := *img, opts("", 16)
		c.spoil(&spoilt, &o)
		if _, err := Recover(newCoreEngine(t), &spoilt, o); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: recovery returned %v", c.name, err)
		}
	}
	// An image whose inputs since the last checkpoint are not known is
	// held to the rest.
	unknown := *img
	unknown.Since = -1
	de, err := Recover(newCoreEngine(t), &unknown, opts("", 16))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalState(t, de), img.State) || de.Recovery().ReplayedEnvelopes != 4 {
		t.Fatalf("recovered %d replayed envelopes into a different state", de.Recovery().ReplayedEnvelopes)
	}
	feed(de, 21, 3)
	torn, err := Crash(de, true)
	if err != nil || !torn.Torn || torn.Since != 7 {
		t.Fatalf("torn crash %+v: %v", torn, err)
	}
	de, err = Recover(newCoreEngine(t), torn, opts("", 16))
	if err != nil {
		t.Fatal(err)
	}
	if st := de.Recovery(); st.TornTailBytes == 0 {
		t.Fatalf("recovery of a torn image: %+v", st)
	}
	de.Close()
}

// TestFormatTagRefused: Wrap tags the directory it starts, and refuses
// one under another tag, or under none while it holds state, naming both
// before it reads a record. A copied image keeps its tag.
func TestFormatTagRefused(t *testing.T) {
	dir := t.TempDir()
	e, err := Wrap(newCoreEngine(t), opts(dir, 16))
	if err != nil {
		t.Fatal(err)
	}
	feed(e, 1, 20)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Wrap(newCoreEngine(t), opts(copyDir(t, dir), 16)); err != nil {
		t.Fatalf("a copied image: %v", err)
	}
	e.Close()
	empty := marshalState(t, newCoreEngine(t))
	tag := filepath.Join(dir, formatFile)
	for _, c := range []struct {
		name, want string
		spoil      func() error
	}{
		{"old tag", `holds format "flexcast-durable/0"`, func() error { return os.WriteFile(tag, []byte("flexcast-durable/0"), 0o644) }},
		{"no tag", "holds no format tag", func() error { return os.Remove(tag) }},
	} {
		if err := c.spoil(); err != nil {
			t.Fatal(err)
		}
		fresh := newCoreEngine(t)
		_, err := Wrap(fresh, opts(dir, 16))
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), formatTag) {
			t.Fatalf("%s: Wrap returned %v", c.name, err)
		}
		if !bytes.Equal(marshalState(t, fresh), empty) {
			t.Fatalf("%s: a record was read into the engine", c.name)
		}
	}
}
