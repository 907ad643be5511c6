// Package c is the wallclock netrt corpus, loaded as internal/netrt: wall
// time is legal inside the heartbeat/deadline allowlist, pinned elsewhere.
package c

import "time"

func handshake() time.Time {
	return time.Now().Add(5 * time.Second) // allowlisted deadline path
}

func heartbeatLoop() {
	tick := time.NewTicker(time.Second) // allowlisted heartbeat pacing
	defer tick.Stop()
}

func send() {
	deadline := func() time.Time { return time.Now().Add(time.Second) }
	_ = deadline() // closures inherit the enclosing allowlisted function
}

func runHop() {
	time.Sleep(time.Millisecond) // want "wall-clock time.Sleep"
}

func offerStats() float64 {
	return float64(time.Now().UnixNano()) / 1e9 // want "wall-clock time.Now"
}
