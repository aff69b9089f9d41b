package telemetry

import (
	"sort"
	"sync"

	"flexcast/internal/metrics"
)

// Registry is a process-wide catalog of live metrics: counters and
// gauges are read-through callbacks (the owning subsystem keeps its
// own atomic state; the registry only snapshots it on demand, so
// registration adds zero hot-path cost), histograms and tracers are
// referenced directly. Registering a name again replaces the previous
// entry — deployments that run several configurations in one process
// (flexgrid) re-register each run and the endpoint always reflects
// the latest.
type Registry struct {
	mu       sync.Mutex
	counters map[string]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*metrics.Histogram
	tracers  map[string]*Tracer
}

// Default is the process-wide registry the -telemetry endpoint serves.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*metrics.Histogram),
		tracers:  make(map[string]*Tracer),
	}
}

// RegisterCounter registers a monotonic counter callback.
func (r *Registry) RegisterCounter(name string, f func() uint64) {
	r.mu.Lock()
	r.counters[name] = f
	r.mu.Unlock()
}

// RegisterGauge registers an instantaneous gauge callback.
func (r *Registry) RegisterGauge(name string, f func() float64) {
	r.mu.Lock()
	r.gauges[name] = f
	r.mu.Unlock()
}

// RegisterHistogram registers a latency histogram; by convention the
// name carries its unit suffix (most are _ns).
func (r *Registry) RegisterHistogram(name string, h *metrics.Histogram) {
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// RegisterTracer registers a lifecycle tracer; its stage decomposition
// appears under "stages" in the snapshot. A nil tracer unregisters.
func (r *Registry) RegisterTracer(name string, t *Tracer) {
	r.mu.Lock()
	if t == nil {
		delete(r.tracers, name)
	} else {
		r.tracers[name] = t
	}
	r.mu.Unlock()
}

// Snapshot is the serializable point-in-time view of the registry —
// the /metrics response body.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]metrics.NsSummary `json:"histograms"`
	Stages     map[string]*StagesReport     `json:"stages,omitempty"`
}

// Snapshot evaluates every registered callback and summarizes every
// histogram. Callbacks run outside the registry lock's critical
// sections' owners — they must be safe to call from any goroutine.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]string, 0, len(r.counters))
	for n := range r.counters {
		counters = append(counters, n)
	}
	gauges := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	cf := make(map[string]func() uint64, len(r.counters))
	for n, f := range r.counters {
		cf[n] = f
	}
	gf := make(map[string]func() float64, len(r.gauges))
	for n, f := range r.gauges {
		gf[n] = f
	}
	hs := make(map[string]*metrics.Histogram, len(r.hists))
	for n, h := range r.hists {
		hs[n] = h
	}
	ts := make(map[string]*Tracer, len(r.tracers))
	for n, t := range r.tracers {
		ts[n] = t
	}
	r.mu.Unlock()

	sort.Strings(counters)
	sort.Strings(gauges)
	snap := Snapshot{
		Counters:   make(map[string]uint64, len(cf)),
		Gauges:     make(map[string]float64, len(gf)),
		Histograms: make(map[string]metrics.NsSummary, len(hs)),
	}
	for _, n := range counters {
		snap.Counters[n] = cf[n]()
	}
	for _, n := range gauges {
		snap.Gauges[n] = gf[n]()
	}
	for n, h := range hs {
		snap.Histograms[n] = h.SummaryNs()
	}
	for n, t := range ts {
		if rep := t.Report(); rep != nil {
			if snap.Stages == nil {
				snap.Stages = make(map[string]*StagesReport, len(ts))
			}
			snap.Stages[n] = rep
		}
	}
	return snap
}
