// Package analyzers is the registry of the repository's invariant
// analyzers — the single list cmd/rldlint and the self-check test share.
package analyzers

import (
	"rld/internal/lint"
	"rld/internal/lint/guardedby"
	"rld/internal/lint/lockorder"
	"rld/internal/lint/rawerror"
	"rld/internal/lint/wallclock"
)

// All returns every registered analyzer, in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		guardedby.Analyzer,
		lockorder.Analyzer,
		rawerror.Analyzer,
		wallclock.Analyzer,
	}
}
