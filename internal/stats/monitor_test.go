package stats

import (
	"math"
	"sync"
	"testing"
)

func TestMonitorPrimingAndSnapshot(t *testing.T) {
	m := NewMonitor(2, 0.5)
	if snap := m.Snapshot(); snap.Sels[0] != 0 || len(snap.Rates) != 0 {
		t.Fatalf("fresh monitor holds %+v", snap)
	}
	// The first offer is taken as is, not blended with the zero state.
	m.Offer(0, []float64{0.4, 0.6}, map[string]float64{"S": 10})
	snap := m.Snapshot()
	if snap.Sels[0] != 0.4 || snap.Sels[1] != 0.6 || snap.Rates["S"] != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestMonitorEWMA(t *testing.T) {
	m := NewMonitor(1, 0.5)
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
}

func TestMonitorAlphaGuard(t *testing.T) {
	m := NewMonitor(1, -3)
	m.Offer(0, []float64{1}, nil)
	m.Offer(1, []float64{0}, nil)
	got := m.Snapshot().Sels[0]
	if got < 0 || got > 1 {
		t.Fatalf("guarded alpha produced %v", got)
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	m := NewMonitor(1, 0.5)
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

func TestSnapshotCloneIsolation(t *testing.T) {
	s := Snapshot{Time: 1, Sels: []float64{0.5}, Rates: map[string]float64{"S": 2}}
	c := s.Clone()
	c.Sels[0] = 9
	c.Rates["S"] = 9
	if s.Sels[0] != 0.5 || s.Rates["S"] != 2 {
		t.Fatal("Clone aliased state")
	}
}
