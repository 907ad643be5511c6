package netrt

import (
	"encoding/json"
	"errors"
	"testing"

	"rld/internal/engine"
	"rld/internal/physical"
	"rld/internal/wire"
)

// TestWorkerRejectsUnservedFrames pins the worker's frame totality: every
// frame type, known or not, is either served (a ping answers pong) or
// refused with ErrBadFrame — the request types on their empty payload, the
// rest at respond's default — and none panics.
func TestWorkerRejectsUnservedFrames(t *testing.T) {
	core, err := engine.NewNodeCore(testQuery(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for ft := frameType(0); ft <= frameStagePart+1; ft++ {
		var reply wire.Enc
		rt, err := respond(nil, core, DefaultStageChunk, ft, wire.Dec{}, &reply)
		if ft == framePing {
			if err != nil || rt != framePong {
				t.Errorf("ping: reply %d, %v; want pong", rt, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("frame %d: reply %d, err %v; want ErrBadFrame", ft, rt, err)
		}
	}
}

// TestWorkerShardsFollowWorkers: a worker process serves one request at a
// time, so the leader ships Workers = 1 whatever its caller asked for, and
// the NodeCore a worker builds from that setup message (as RunWorker does)
// keeps one window per operator.
func TestWorkerShardsFollowWorkers(t *testing.T) {
	c, err := NewCluster(testQuery(), physical.Assignment{0, 0}, 1, ClusterConfig{Engine: engine.Config{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var setup setupMsg
	if err := json.Unmarshal(c.setup, &setup); err != nil {
		t.Fatal(err)
	}
	core, err := engine.NewNodeCore(setup.Query, setup.Config)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < core.NumOps(); op++ {
		if got := core.Shards(op); got != 1 {
			t.Errorf("op %d: the worker's NodeCore has %d shards, want 1 (setup says Workers = %d)", op, got, setup.Config.Workers)
		}
	}
}
