//go:build !race

package runtime

import (
	"testing"

	"rld/internal/gen"
)

// TestSourceFeedAllocs pins SourceFeed's batch recycling: once the pool is
// warm, Next hands back the batch it returned last time and fills the next
// one in place, so a steady-state call allocates nothing. A path that drops
// a batch instead of releasing it shows here as one fresh batch's columns
// per call. (The race detector changes allocation behaviour; the file is
// excluded under -race.)
func TestSourceFeedAllocs(t *testing.T) {
	mk := func(name string, seed int64) *gen.Source {
		return gen.NewSource(name, gen.ConstProfile(50),
			gen.KeyDist{Target: gen.ConstProfile(0.1), Cold: 128},
			gen.Uniform{A: 0, B: 100}, seed)
	}
	f := NewSourceFeed([]*gen.Source{mk("A", 1), mk("B", 2)}, 100, 1e9)
	for i := 0; i < 100; i++ {
		if f.Next() == nil {
			t.Fatal("feed exhausted during warm-up")
		}
	}
	if n := testing.AllocsPerRun(1000, func() { f.Next() }); n > 1 {
		t.Fatalf("SourceFeed.Next made %v allocations per call, want <= 1", n)
	}
}
