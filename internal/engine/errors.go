package engine

import "errors"

// Sentinel errors for the engine's failure modes. Every error the engine
// returns wraps one of these, so callers distinguish failure classes with
// errors.Is instead of matching message text. The rld package re-exports
// the ones a Pipeline can return; ErrNotStarted and ErrStopped are the bare
// router's — a session starts its engine before it is handed out and answers
// ErrClosed before a stopped engine could be asked.
var (
	// ErrNotStarted reports an Ingest before Start.
	ErrNotStarted = errors.New("engine: not started")
	// ErrStopped reports an operation after Stop.
	ErrStopped = errors.New("engine: stopped")
	// ErrNodeDown reports an Ingest into a fully-crashed cluster: every
	// node is down, so the batch has nowhere to run.
	ErrNodeDown = errors.New("engine: node down")
	// ErrInvalidPlan reports a plan chooser returning a plan that is not
	// a valid ordering of the query's operators.
	ErrInvalidPlan = errors.New("engine: invalid plan")
)
