package netrt

import (
	"errors"
	"testing"

	"rld/internal/engine"
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
