//go:build !race

package stream

import "testing"

// TestDetachAllocs pins Detach at O(1) allocations per call. (The race
// detector changes allocation behaviour; the file is excluded under -race.)
func TestDetachAllocs(t *testing.T) {
	sch := NewJoinSchema([]string{"A", "B"})
	src := make([]*Joined, 200)
	for i := range src {
		src[i] = sch.Acquire()
		src[i].SetPart(0, uint64(i), 1, 1, 1, []float64{1})
		src[i].SetPart(1, uint64(i), 1, 1, 1, []float64{2})
	}
	if n := testing.AllocsPerRun(20, func() { Detach(src) }); n > 4 {
		t.Fatalf("Detach of %d tuples made %v allocations, want <= 4", len(src), n)
	}
}
