package grid

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"flexcast/internal/durable"
	"flexcast/internal/loadgen"
	"flexcast/internal/stats"
)

// maxSnapGrowth bounds the largest snapshot body of the run's second half
// against the largest of its first half: a snapshot holds live state, so
// its size may wander (history between two flushes) but not climb.
const maxSnapGrowth = 1.25

// maxJournalBytesPerTx bounds journal.log, which grows for as long as the
// run does, against the transactions executed: 8 bytes of tombstone per
// delivery and some 35 per order and replica still undelivered at the
// next cadence point come to about 40 under the gTPC-C mix.
const maxJournalBytesPerTx = 64

// runSoak executes a durable load run while a sampler walks the
// persistence directory and the heap gauge, then asserts the first
// slice of the ROADMAP soak item. The rotating files stay bounded by the
// snapshot cadence: the durable backend retains the open WAL epoch and
// the sealed one before it, which ends in the snapshot, per group
// (KeepEpochs off), one more while a persist job runs, so their peak must
// sit within DiskBoundFactor × groups × (max snapshot + max WAL epoch) — a bound that moves with the snapshot size, which is
// why the snapshot size has a check of its own: the largest snapshot of
// the second half of the run within maxSnapGrowth of the first half's.
// journal.log is never rotated; it is sampled apart and bounded per
// executed transaction. And the heap gauge stays flat (the median heap
// of the run's second half within MaxHeapRatio of the first half's). Any
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
	m["soak_journal_bytes"] = sm.journalBytes
	m["soak_snap_growth"] = sm.snapGrowth
	m["soak_heap_ratio"] = sm.heapRatio
	m["soak_samples"] = float64(sm.samples)
	if sm.peakDiskBytes > diskBound {
		return nil, fmt.Errorf("grid: cell %s: peak disk %0.f bytes in snapshots and WAL epochs exceeds the snapshot-cadence bound %.0f (%.0fx groups×(snap %0.f + wal %0.f)) — epochs are not being truncated",
			cell.Name, sm.peakDiskBytes, diskBound, boundFactor, sm.maxSnapBytes, sm.maxWalBytes)
	}
	if sm.snapGrowth > maxSnapGrowth {
		return nil, fmt.Errorf("grid: cell %s: the largest snapshot grew %.2fx from the first half of the run to the second (bound %.2fx) — snapshot size tracks run length, not live state",
			cell.Name, sm.snapGrowth, maxSnapGrowth)
	}
	if tx := float64(art.Result.Execute.TxApplied); sm.journalBytes > maxJournalBytesPerTx*tx {
		return nil, fmt.Errorf("grid: cell %s: journal.log holds %.0f bytes for %.0f executed transactions (bound %d per transaction) — tail entries are journaled more than once",
			cell.Name, sm.journalBytes, tx, maxJournalBytesPerTx)
	}
	if sm.heapRatio > maxHeapRatio {
		return nil, fmt.Errorf("grid: cell %s: heap grew %.2fx from the first half of the run to the second (bound %.2fx) — the gauge is not flat",
			cell.Name, sm.heapRatio, maxHeapRatio)
	}
	return art, nil
}

// soakSampler periodically walks the durable root (bytes in rotating
// files, bytes in journals, largest single snapshot body, largest single
// WAL epoch) and reads the heap gauge.
type soakSampler struct {
	root   string
	period time.Duration

	stopCh chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	disk    []float64 // WAL epoch bytes, snapshots included, per sample
	snap    []float64 // largest snapshot body per sample
	heap    []float64 // HeapAlloc per sample
	journal float64   // journal.log bytes, all groups, at the last sample
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
	var rotating, journal, maxSnap, maxWal float64
	filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // files vanish mid-walk as epochs truncate; skip
		}
		if d.IsDir() {
			// A directory that is not an engine's holds no snapshot.
			if info, err := durable.Inspect(path); err == nil {
				maxSnap = max(maxSnap, float64(len(info.SnapshotBody)))
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		sz := float64(info.Size())
		if d.Name() == "journal.log" {
			journal += sz
			return nil
		}
		maxWal = max(maxWal, sz)
		rotating += sz
		return nil
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = append(s.disk, rotating)
	s.snap = append(s.snap, maxSnap)
	s.heap = append(s.heap, float64(ms.HeapAlloc))
	s.journal = journal
	s.maxWal = max(s.maxWal, maxWal)
}

type soakMetrics struct {
	samples       int
	peakDiskBytes float64
	journalBytes  float64
	maxSnapBytes  float64
	maxWalBytes   float64
	snapGrowth    float64
	heapRatio     float64
}

func (s *soakSampler) metrics() soakMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.disk) // at least the sample stop takes
	m := soakMetrics{samples: n, journalBytes: s.journal, maxWalBytes: s.maxWal, snapGrowth: 1,
		peakDiskBytes: slices.Max(s.disk), maxSnapBytes: slices.Max(s.snap)}
	// Growth: the largest snapshot of the second half over the largest of
	// the first. Only a size that climbs with the run pushes it up; the
	// sawtooth of a history pruned on every flush has the same peaks in
	// both halves.
	if first := slices.Max(s.snap[:(n+1)/2]); first > 0 {
		m.snapGrowth = slices.Max(s.snap[n/2:]) / first
	}
	// Flatness: median heap of the run's second half over the first
	// half's. A leak grows monotonically, driving the ratio up; a flat
	// gauge hovers near 1 regardless of the absolute level.
	if n >= 2 {
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
