package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"flexcast/internal/metrics"
)

// TestServeMetricsRoundTrip starts the endpoint on an ephemeral port,
// fetches /metrics mid-"run", and checks the body is valid JSON whose
// counters, gauges, histograms and stages survive a round trip.
func TestServeMetricsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	var depth uint64 = 7
	reg.RegisterCounter("backpressure_stalls", func() uint64 { return 42 })
	reg.RegisterGauge("queue_depth", func() float64 { return float64(depth) })
	h := metrics.NewHistogram()
	h.Record(1000)
	h.Record(2000)
	reg.RegisterHistogram("fsync_batch_ns", h)

	clk := &fakeClock{}
	tr := NewTracer(2, clk.fn)
	m := id(0, 2)
	tr.Begin(m)
	clk.now = 500
	tr.Stamp(m, StageDeliver)
	clk.now = 800
	tr.Finish(m)
	reg.RegisterTracer("runtime", tr)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}

	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("body is not valid JSON: %v\n%s", err, body)
	}
	if got := snap.Counters["backpressure_stalls"]; got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if got := snap.Gauges["queue_depth"]; got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
	if got := snap.Histograms["fsync_batch_ns"].Count; got != 2 {
		t.Errorf("histogram count = %d, want 2", got)
	}
	st, ok := snap.Stages["runtime"]
	if !ok || st == nil {
		t.Fatalf("stages section missing from /metrics: %s", body)
	}
	if st.SampleEvery != 2 || st.Records != 1 {
		t.Errorf("stages = {sample_every %d, records %d}, want {2, 1}", st.SampleEvery, st.Records)
	}
	if st.E2E.Max != 800 {
		t.Errorf("e2e max = %d, want 800", st.E2E.Max)
	}
	if len(st.Stages) != 2 {
		t.Fatalf("stage summaries = %d (%+v), want 2 (ordering, reply)", len(st.Stages), st.Stages)
	}
	if st.Stages[0].Stage != "ordering" || st.Stages[1].Stage != "reply" {
		t.Errorf("stage order = %q, %q; want ordering, reply", st.Stages[0].Stage, st.Stages[1].Stage)
	}

	// The pprof index must be mounted too.
	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", pp.StatusCode)
	}
}

// TestSnapshotLiveUpdates checks the endpoint is a live view: a second
// snapshot reflects counter movement after the first.
func TestSnapshotLiveUpdates(t *testing.T) {
	reg := NewRegistry()
	var n uint64
	reg.RegisterCounter("ops", func() uint64 { return n })
	if got := reg.Snapshot().Counters["ops"]; got != 0 {
		t.Fatalf("initial = %d", got)
	}
	n = 31
	if got := reg.Snapshot().Counters["ops"]; got != 31 {
		t.Fatalf("after update = %d, want 31", got)
	}
	// Re-registering a name replaces it (each flexgrid repeat reuses names).
	reg.RegisterCounter("ops", func() uint64 { return 1000 })
	if got := reg.Snapshot().Counters["ops"]; got != 1000 {
		t.Fatalf("after re-register = %d, want 1000", got)
	}
}
