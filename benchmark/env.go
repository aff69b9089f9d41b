package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"flexcast/internal/wan"
)

// environment is printed at the top of every output: a number without
// the machine, toolchain and tree it came from cannot be compared with
// another.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	// Clean is true only for a git checkout with no uncommitted change:
	// numbers from anything else are not a baseline.
	Clean       bool    `json:"clean"`
	DurableFS   string  `json:"durable_fs"`
	DelayMatrix string  `json:"delay_matrix"`
	Seed        int64   `json:"seed"`
	WindowS     float64 `json:"window_s"`
	WarmupS     float64 `json:"warmup_s"`
	LedgerTxs   int     `json:"ledger_txs"`
}

func printEnv(o options, tmp string) {
	commit, clean := gitState()
	env := environment{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		Kernel:      kernelRelease(),
		Commit:      commit,
		Clean:       clean,
		DurableFS:   fsType(tmp),
		DelayMatrix: delayMatrixID(),
		Seed:        o.seed,
		WindowS:     o.window.Seconds(),
		WarmupS:     o.warmup.Seconds(),
		LedgerTxs:   o.ledgerTxs,
	}
	line, err := json.Marshal(env)
	if err != nil {
		fatalf("encode environment: %v", err)
	}
	if !clean {
		fmt.Println(`# "clean": false — not a committed tree (or not a git checkout): do not record these numbers as a baseline`)
	}
	fmt.Printf("env    %s\n", line)
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// gitState reports the checkout's commit and whether the tree is clean.
// Outside a git checkout (the driver's copies are not one) the commit is
// unknown and the tree counts as not clean.
func gitState() (commit string, clean bool) {
	root, err := moduleRoot()
	if err != nil {
		return "unknown", false
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), false
	}
	return strings.TrimSpace(string(head)), len(strings.TrimSpace(string(status))) == 0
}

// fsType names the filesystem a directory is on: fsync cost is a
// property of it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// delayMatrixID identifies the delay wan-open injects: the one-way
// latencies of internal/wan's 12-region matrix, by a hash of its values,
// with the range they span.
func delayMatrixID() string {
	h := fnv.New32a()
	lo, hi := int64(-1), int64(0)
	for _, a := range wan.Groups() {
		for _, b := range wan.Groups() {
			us := wan.OneWayMicros(a, b)
			fmt.Fprintf(h, "%d,", us)
			if a != b && (lo < 0 || us < lo) {
				lo = us
			}
			if us > hi {
				hi = us
			}
		}
	}
	return fmt.Sprintf("wan.OneWayMicros/%d-regions/%08x (one-way %.1f..%.1f ms, client-to-home %.1f ms)",
		wan.NumRegions, h.Sum32(), float64(lo)/1e3, float64(hi)/1e3, float64(wan.LocalRTTMicros)/2e3)
}
