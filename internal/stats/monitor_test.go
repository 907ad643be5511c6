package stats

import (
	"math"
	"sync"
	"testing"
)

func TestMonitorPrimingAndSnapshot(t *testing.T) {
	m := NewMonitor(0.5, Snapshot{Sels: []float64{0.3, 0.3}, Rates: map[string]float64{"S": 5, "T": 1}})
	if snap := m.Snapshot(); snap.Sels[0] != 0.3 || snap.Rates["S"] != 5 {
		t.Fatalf("fresh monitor publishes %+v, want its prior", snap)
	}
	// The first offer replaces the prior, not blended with it.
	m.Offer(0, []float64{0.4, 0.6}, map[string]float64{"S": 10})
	snap := m.Snapshot()
	if snap.Sels[0] != 0.4 || snap.Sels[1] != 0.6 || snap.Rates["S"] != 10 || len(snap.Rates) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestMonitorEWMA(t *testing.T) {
	m := NewMonitor(0.5, Snapshot{})
	m.Offer(0, []float64{0.0}, map[string]float64{"S": 0})
	m.Offer(1, []float64{1.0}, map[string]float64{"S": 100})
	snap := m.Snapshot()
	if math.Abs(snap.Sels[0]-0.5) > 1e-12 {
		t.Fatalf("EWMA sel = %v, want 0.5", snap.Sels[0])
	}
	if math.Abs(snap.Rates["S"]-50) > 1e-12 {
		t.Fatalf("EWMA rate = %v, want 50", snap.Rates["S"])
	}
	// New stream appears mid-run: adopted directly.
	m.Offer(2, []float64{1.0}, map[string]float64{"S": 100, "T": 7})
	if m.Snapshot().Rates["T"] != 7 {
		t.Fatal("new stream should be adopted")
	}
	// A stream an offer leaves out keeps its rate.
	m.Offer(3, []float64{1.0}, map[string]float64{"S": 100})
	if m.Snapshot().Rates["T"] != 7 {
		t.Fatal("an absent stream lost its rate")
	}
}

func TestMonitorAlphaGuard(t *testing.T) {
	m := NewMonitor(-3, Snapshot{})
	m.Offer(0, []float64{1}, nil)
	m.Offer(1, []float64{0}, nil)
	got := m.Snapshot().Sels[0]
	if got < 0 || got > 1 {
		t.Fatalf("guarded alpha produced %v", got)
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	m := NewMonitor(0.5, Snapshot{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Offer(float64(i*100+j), []float64{0.5}, map[string]float64{"S": 1})
				_ = m.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	// Every offer is the same point, so any interleaving blends to it.
	if snap := m.Snapshot(); snap.Sels[0] != 0.5 || snap.Rates["S"] != 1 {
		t.Fatalf("concurrent offers of one point left %+v", snap)
	}
}

// TestSnapshotIsolation: a snapshot is published, never updated in place,
// so one read before an Offer still holds what it held.
func TestSnapshotIsolation(t *testing.T) {
	m := NewMonitor(0.5, Snapshot{})
	m.Offer(1, []float64{0.5}, map[string]float64{"S": 2})
	before := m.Snapshot()
	m.Offer(2, []float64{0.9}, map[string]float64{"S": 8, "T": 1})
	if before.Time != 1 || before.Sels[0] != 0.5 || before.Rates["S"] != 2 || len(before.Rates) != 1 {
		t.Fatalf("an Offer changed the snapshot read before it: %+v", before)
	}
	if after := m.Snapshot(); after.Sels[0] != 0.7 || after.Rates["S"] != 5 {
		t.Fatalf("snapshot after the offer = %+v", after)
	}
}
