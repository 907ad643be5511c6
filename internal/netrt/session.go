package netrt

import (
	"fmt"

	"rld/internal/engine"
	"rld/internal/query"
	"rld/internal/runtime"
)

// OpenSession spawns a leader/worker cluster for q on nNodes worker
// processes and layers the full engine session protocol over it. The
// session is indistinguishable from an in-process one to callers — same
// ingest/backpressure/tick/fault/stats surface — except that Crash is a
// literal SIGKILL and Recover a respawn with checkpoint restore. workerCmd
// is ClusterConfig.WorkerCommand; the workers' operator configuration is
// cfg.
func OpenSession(q *query.Query, nNodes int, pol runtime.Policy, cfg engine.Config, opts runtime.SessionOptions, workerCmd []string) (*engine.Session, error) {
	if q == nil || pol == nil {
		//rldlint:allow rawerror -- constructor argument validation, not a wire-path error
		return nil, fmt.Errorf("netrt: session needs a query and a policy")
	}
	c, err := NewCluster(q, pol.Placement(), nNodes, ClusterConfig{Engine: cfg, WorkerCommand: workerCmd})
	if err != nil {
		return nil, err
	}
	// A rejected open stops the engine, which closes the cluster.
	return engine.OpenSessionOn(c.Engine, "net", pol, opts)
}
