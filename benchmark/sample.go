package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"flexcast/internal/telemetry"
)

// procCounters is the process's resource use up to one instant.
type procCounters struct {
	cpuNs      int64 // user + system, getrusage
	allocBytes uint64
	allocs     uint64
	gcPauseNs  uint64
	maxRSSKB   int64
}

func readProc() procCounters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcPauseNs:  ms.PauseTotalNs,
		maxRSSKB:   ru.Maxrss,
	}
}

func (a procCounters) since(b procCounters) procCounters {
	return procCounters{
		cpuNs:      a.cpuNs - b.cpuNs,
		allocBytes: a.allocBytes - b.allocBytes,
		allocs:     a.allocs - b.allocs,
		gcPauseNs:  a.gcPauseNs - b.gcPauseNs,
		maxRSSKB:   a.maxRSSKB,
	}
}

// windowSample is what the sampler saw between two instants inside the
// measurement window of a loadgen run: resource use, the registry's
// counters as deltas and its gauges as maxima.
type windowSample struct {
	proc     procCounters
	counters map[string]uint64
	gaugeMax map[string]float64
	samples  int
}

// samplePeriod is the sampler's tick: 100 registry snapshots a second
// cost well under 1 % of a core and bracket the window to 10 ms.
const samplePeriod = 10 * time.Millisecond

// sampler polls telemetry.Default while loadgen.Run executes. loadgen
// publishes its live counters there; "issued" stays 0 until the
// measurement window opens, which is how the sampler finds the window
// without any hook inside loadgen.
type sampler struct {
	window time.Duration
	stop   chan struct{}
	wg     sync.WaitGroup
	out    windowSample
	found  bool
}

func startSampler(window time.Duration) *sampler {
	// A previous run in this process leaves its final counters
	// registered until the next run replaces them; clear the one the
	// sampler keys on.
	telemetry.Default.RegisterCounter("issued", func() uint64 { return 0 })
	s := &sampler{window: window, stop: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer s.wg.Done()
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	var (
		opened    time.Time
		baseProc  procCounters
		baseCount map[string]uint64
	)
	gaugeMax := make(map[string]float64)
	n := 0
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		snap := telemetry.Default.Snapshot()
		if opened.IsZero() {
			if snap.Counters["issued"] == 0 {
				continue
			}
			opened = time.Now()
			baseProc, baseCount = readProc(), snap.Counters
			continue
		}
		n++
		for name, v := range snap.Gauges {
			if v > gaugeMax[name] {
				gaugeMax[name] = v
			}
		}
		// Close one tick early so the closing sample is still inside the
		// window, with the load running.
		if time.Since(opened) < s.window-2*samplePeriod {
			continue
		}
		deltas := make(map[string]uint64, len(snap.Counters))
		for name, v := range snap.Counters {
			deltas[name] = v - baseCount[name]
		}
		s.out = windowSample{proc: readProc().since(baseProc), counters: deltas, gaugeMax: gaugeMax, samples: n}
		s.found = true
		return
	}
}

// finish stops the sampler and returns what it measured; ok is false
// when the run ended before a whole window was observed.
func (s *sampler) finish() (windowSample, bool) {
	close(s.stop)
	s.wg.Wait()
	return s.out, s.found
}
