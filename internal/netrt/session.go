package netrt

import (
	"fmt"

	"rld/internal/engine"
	"rld/internal/query"
	"rld/internal/runtime"
)

// Options configures a distributed session: the full engine session
// surface plus the cluster knobs.
type Options struct {
	// Session is the engine-session configuration (Config, TickEvery,
	// Faults, Horizon, MaxPending, buffers).
	Session engine.SessionOptions
	// Cluster tunes the leader/worker substrate (worker command, listen
	// address, stage chunk size). Cluster.Engine is overwritten by
	// Session.Config so the two cannot disagree.
	Cluster ClusterConfig
}

// OpenSession spawns a leader/worker cluster for q on nNodes worker
// processes and layers the full engine session protocol over it. The
// session is indistinguishable from an in-process one to callers — same
// ingest/backpressure/tick/fault/stats surface — except that Crash is a
// literal SIGKILL and Recover a respawn with checkpoint restore.
func OpenSession(q *query.Query, nNodes int, pol runtime.Policy, opts Options) (*engine.Session, error) {
	if q == nil || pol == nil {
		//rldlint:allow rawerror -- constructor argument validation, not a wire-path error
		return nil, fmt.Errorf("netrt: session needs a query and a policy")
	}
	opts.Cluster.Engine = opts.Session.Config
	c, err := NewCluster(q, pol.Placement(), nNodes, opts.Cluster)
	if err != nil {
		return nil, err
	}
	// A rejected open stops the engine, which closes the cluster.
	return engine.OpenSessionOn(c.Engine, "net", pol, opts.Session)
}
