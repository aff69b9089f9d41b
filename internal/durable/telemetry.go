package durable

import (
	"flexcast/internal/metrics"
)

// Durability latency histograms, package-level and process-wide: every
// durable engine in the process folds into the same distributions (a
// deployment runs one engine per group, and the question the telemetry
// plane answers — "is the disk the bottleneck?" — is per process, not
// per group). Recorded values are nanoseconds; commands register them
// with the telemetry registry as wal_fsync_ns, snapshot_write_ns,
// snapshot_persist_ns and snapshot_backpressure_ns. The first two are
// recorded on engine goroutines only, so their counts are a function of
// the input; the persister records into persistHist and bodyBytesHist
// (bytes, not nanoseconds: snapshot_body_bytes) alone.
var (
	fsyncHist        = metrics.NewHistogram()
	snapshotHist     = metrics.NewHistogram()
	persistHist      = metrics.NewHistogram()
	backpressureHist = metrics.NewHistogram()
	bodyBytesHist    = metrics.NewHistogram()
)

// FsyncHist is the WAL fsync-batch latency distribution: one sample per
// actual fsync(2) an engine goroutine issued (batched appends share one;
// a persist job's fsyncs, the seal included, are in SnapshotPersistHist).
func FsyncHist() *metrics.Histogram { return fsyncHist }

// SnapshotHist is the stall a snapshot cadence point inserts into the
// engine's input path: waiting for the previous persist, capturing the
// state, creating the next WAL epoch. One sample per snapshot.
func SnapshotHist() *metrics.Histogram { return snapshotHist }

// SnapshotPersistHist is the duration of the background persist jobs:
// marshal, journal append + fsync, snapshot record append, fsync and
// close of the sealed epoch, deletion of the epochs it supersedes.
func SnapshotPersistHist() *metrics.Histogram { return persistHist }

// SnapshotBackpressureHist is the part of each SnapshotHist sample spent
// waiting for the previous persist job — zero unless the disk is slower
// than the snapshot cadence.
func SnapshotBackpressureHist() *metrics.Histogram { return backpressureHist }

// SnapshotBodyBytesHist is the size of the snapshot bodies the persist
// jobs wrote, one sample per job: what a cadence point rewrites, as
// opposed to the tail instalment it appends to the journal. It should
// track live state, not run length.
func SnapshotBodyBytesHist() *metrics.Histogram { return bodyBytesHist }
