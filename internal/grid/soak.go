package grid

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"flexcast/internal/loadgen"
	"flexcast/internal/stats"
)

// runSoak executes a durable load run while a sampler walks the
// persistence directory and the heap gauge, then asserts the first
// slice of the ROADMAP soak item: the on-disk footprint stays bounded
// by the snapshot cadence (the durable backend retains one snapshot
// plus one rotating WAL epoch per group — KeepEpochs off — so peak
// disk must sit within DiskBoundFactor × groups × (max snapshot + max
// WAL epoch)), and the heap gauge stays flat (the median heap of the
// run's second half within MaxHeapRatio of the first half's). Either
// bound failing fails the cell, and with it the grid run.
func runSoak(cell Cell, cfg loadgen.Config) (*loadgen.Artefact, error) {
	if !cfg.Durable || !cfg.Execute {
		return nil, fmt.Errorf("grid: cell %s: soak requires durable+execute", cell.Name)
	}
	soak := cell.Soak
	if soak == nil {
		soak = &SoakSpec{}
	}
	boundFactor := soak.DiskBoundFactor
	if boundFactor == 0 {
		boundFactor = 3
	}
	maxHeapRatio := soak.MaxHeapRatio
	if maxHeapRatio == 0 {
		maxHeapRatio = 1.6
	}
	samplePeriod := time.Duration(soak.SampleMs) * time.Millisecond
	if samplePeriod == 0 {
		samplePeriod = 250 * time.Millisecond
	}

	// The grid owns the persistence root so the sampler can walk it
	// while the run writes (loadgen.Run persists into a run-* subdir
	// of the configured root and leaves it behind).
	root, err := os.MkdirTemp("", "flexgrid-soak-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cfg.DurableDir = root

	sampler := &soakSampler{root: root, period: samplePeriod}
	sampler.start()
	art, err := loadgen.RunArtefact(cfg)
	sampler.stop()
	if err != nil {
		return nil, err
	}

	sm := sampler.metrics()
	if sm.samples < 4 {
		return nil, fmt.Errorf("grid: cell %s: only %d soak samples — lengthen the run or shorten sample_ms", cell.Name, sm.samples)
	}
	liveSet := float64(art.Params.Groups) * (sm.maxSnapBytes + sm.maxWalBytes)
	diskBound := boundFactor * liveSet
	m := art.Metrics
	m["soak_disk_peak_bytes"] = sm.peakDiskBytes
	m["soak_disk_bound_bytes"] = diskBound
	m["soak_heap_ratio"] = sm.heapRatio
	m["soak_samples"] = float64(sm.samples)
	if sm.peakDiskBytes > diskBound {
		return nil, fmt.Errorf("grid: cell %s: peak disk %0.f bytes exceeds the snapshot-cadence bound %.0f (%.0fx groups×(snap %0.f + wal %0.f)) — epochs are not being truncated",
			cell.Name, sm.peakDiskBytes, diskBound, boundFactor, sm.maxSnapBytes, sm.maxWalBytes)
	}
	if sm.heapRatio > maxHeapRatio {
		return nil, fmt.Errorf("grid: cell %s: heap grew %.2fx from the first half of the run to the second (bound %.2fx) — the gauge is not flat",
			cell.Name, sm.heapRatio, maxHeapRatio)
	}
	return art, nil
}

// soakSampler periodically walks the durable root (total bytes, max
// single snapshot, max single WAL epoch) and reads the heap gauge.
type soakSampler struct {
	root   string
	period time.Duration

	stopCh chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	disk    []float64 // total bytes per sample
	heap    []float64 // HeapAlloc per sample
	maxSnap float64
	maxWal  float64
}

func (s *soakSampler) start() {
	s.stopCh = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.period)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
		}
	}()
}

func (s *soakSampler) stop() {
	close(s.stopCh)
	s.wg.Wait()
	s.sample() // one final post-run sample
}

func (s *soakSampler) sample() {
	var total, maxSnap, maxWal float64
	filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish mid-walk as epochs truncate; skip
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		sz := float64(info.Size())
		total += sz
		switch {
		case strings.HasSuffix(d.Name(), ".snap"):
			if sz > maxSnap {
				maxSnap = sz
			}
		case strings.HasSuffix(d.Name(), ".log"):
			if sz > maxWal {
				maxWal = sz
			}
		}
		return nil
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = append(s.disk, total)
	s.heap = append(s.heap, float64(ms.HeapAlloc))
	if maxSnap > s.maxSnap {
		s.maxSnap = maxSnap
	}
	if maxWal > s.maxWal {
		s.maxWal = maxWal
	}
}

type soakMetrics struct {
	samples       int
	peakDiskBytes float64
	maxSnapBytes  float64
	maxWalBytes   float64
	heapRatio     float64
}

func (s *soakSampler) metrics() soakMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := soakMetrics{samples: len(s.disk), maxSnapBytes: s.maxSnap, maxWalBytes: s.maxWal}
	for _, v := range s.disk {
		if v > m.peakDiskBytes {
			m.peakDiskBytes = v
		}
	}
	// Flatness: median heap of the run's second half over the first
	// half's. A leak grows monotonically, driving the ratio up; a flat
	// gauge hovers near 1 regardless of the absolute level.
	if n := len(s.heap); n >= 2 {
		first := stats.Median(s.heap[:n/2])
		second := stats.Median(s.heap[n/2:])
		if first > 0 {
			m.heapRatio = second / first
		} else {
			m.heapRatio = 1
		}
	}
	return m
}
