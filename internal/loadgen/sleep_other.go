//go:build !linux

package loadgen

import "time"

// linkTimer is one delay link's wait. Outside Linux it waits on a Go
// timer, at whatever granularity the platform's netpoller gives an idle
// runtime (see the Linux variant).
type linkTimer struct{}

func newLinkTimer() *linkTimer { return &linkTimer{} }

// wait returns once due has passed.
func (*linkTimer) wait(due time.Time) { time.Sleep(time.Until(due)) }

func (*linkTimer) close() {}
