//go:build !linux

package loadgen

import "time"

// sleepUntil returns once due has passed. Outside Linux it waits on a Go
// timer, at whatever granularity the platform's netpoller gives an idle
// runtime (see the Linux variant).
func sleepUntil(due time.Time) {
	time.Sleep(time.Until(due))
}
