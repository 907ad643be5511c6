package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rld"
	"rld/internal/engine"
	"rld/internal/netrt"
	"rld/internal/stats"
	"rld/internal/stream"
	"rld/internal/wal"
	"rld/internal/wire"
)

// Layer replays. Each function below drives one layer alone, through its
// public functions, with the workload's own batches: a warm-up so the
// layer's state is what it would be in a run, then replayBatches timed
// batches. Every batch is timed, not a sample of them: a layer that runs
// only now and then runs cold, and on 20-tuple batches that doubles its
// cost. The numbers say what the layer costs on this feed; the budget table
// sets them against the serial service time.
const replayBatches = 2 * ckptBatches

// layerSet accumulates per-layer metrics by name.
type layerSet map[string]metric

func (l layerSet) put(name string, v float64, unit string) { l[name] = metric{v, unit} }

// timer sums durations and counts units of work.
type timer struct {
	ns    int64
	units int64
}

func (t *timer) add(d time.Duration, units int) { t.ns += d.Nanoseconds(); t.units += int64(units) }
func (t *timer) per() float64 {
	if t.units == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.units)
}

// replayStream drives internal/stream: one unsharded window per joined
// stream, insert and expire timed apart, every tuple of a timed batch
// probing the windows of the other streams.
func replayStream(f *feed, out layerSet) {
	q := f.query
	windows := make([]*stream.Window, len(q.Streams))
	for _, op := range q.Ops {
		if op.Kind == rld.OpJoin {
			for slot, name := range q.Streams {
				if name == op.Stream {
					windows[slot] = stream.NewWindow(q.WindowSeconds)
				}
			}
		}
	}
	var insert, expire, probe, snap timer
	var matches, rows, rowSamples int64
	var m stream.Matches
	all := make([]int32, f.spec.batch)
	for i := range all {
		all[i] = int32(i)
	}
	total := f.spec.warmCount() + replayBatches
	for g := 0; g < total; g++ {
		b := f.emit(g)
		slot := f.slot[g%len(f.cycle)]
		timed := g >= f.spec.warmCount()
		if w := windows[slot]; w != nil {
			// Expire first, so InsertRows's own expiry finds nothing left
			// to do and the two costs separate.
			before := w.Len()
			t0 := time.Now()
			w.ExpireBefore(b.MaxTs() - stream.Time(q.WindowSeconds))
			t1 := time.Now()
			gone := before - w.Len()
			w.InsertRows(b, all)
			t2 := time.Now()
			if timed {
				expire.add(t1.Sub(t0), gone)
				insert.add(t2.Sub(t1), b.Len())
			}
		}
		if !timed {
			continue
		}
		for s, w := range windows {
			if w == nil || s == slot {
				continue
			}
			rows += int64(w.Len())
			rowSamples++
			t0 := time.Now()
			for _, k := range b.Key {
				m.Reset()
				matches += int64(w.AppendMatches(k, &m))
			}
			probe.add(time.Since(t0), b.Len())
		}
	}
	for _, w := range windows {
		if w == nil {
			continue
		}
		b := stream.NewBatch("snapshot")
		t0 := time.Now()
		w.Snapshot(b)
		snap.add(time.Since(t0), 1)
	}
	out.put("stream.insert_ns_per_tuple", insert.per(), "ns")
	out.put("stream.expire_ns_per_tuple", expire.per(), "ns")
	out.put("stream.probe_ns_per_tuple", probe.per(), "ns")
	out.put("stream.matches_per_probe", float64(matches)/float64(max(probe.units, 1)), "count")
	out.put("stream.window_rows", float64(rows)/float64(max(rowSamples, 1)), "count")
	out.put("stream.snapshot_ms", snap.per()/1e6, "ms")
}

// engineConfig is the configuration every replay and pipeline shares.
func engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Workers = 1
	cfg.MaxFanout = maxFanout
	return cfg
}

// replayNodeCore drives engine.NodeCore: Insert for the window writes,
// ProcessStage for each stage of the identity plan, timed by operator kind.
// It returns the mean insert and stage cost per batch for the budget table.
func replayNodeCore(f *feed, out layerSet) (insertUs, stageUs float64, err error) {
	q := f.query
	core, err := engine.NewNodeCore(q, engineConfig())
	if err != nil {
		return 0, 0, err
	}
	var insert, sel, join timer
	timedBatches := 0
	total := f.spec.warmCount() + replayBatches
	for g := 0; g < total; g++ {
		b := f.emit(g)
		timed := g >= f.spec.warmCount()
		t0 := time.Now()
		for _, op := range core.JoinOpsFor(b.Stream) {
			if err := core.Insert(op, b); err != nil {
				return 0, 0, err
			}
		}
		if !timed {
			continue
		}
		insert.add(time.Since(t0), b.Len())
		timedBatches++
		slot := core.Schema().Slot(b.Stream)
		ps := core.NewPartials()
		for i := 0; i < b.Len(); i++ {
			j := core.Schema().Acquire()
			j.SetPart(slot, b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i], b.ValsAt(i))
			ps = append(ps, j)
		}
		for op := range q.Ops {
			n := len(ps)
			t0 := time.Now()
			if ps, err = core.ProcessStage(op, ps); err != nil {
				return 0, 0, err
			}
			if q.Ops[op].Kind == rld.OpSelect {
				sel.add(time.Since(t0), n)
			} else {
				join.add(time.Since(t0), n)
			}
			if len(ps) == 0 {
				break
			}
		}
		core.ReleasePartials(ps)
	}
	out.put("engine.insert_ns_per_tuple", insert.per(), "ns")
	out.put("engine.stage_select_ns_per_tuple", sel.per(), "ns")
	out.put("engine.stage_join_ns_per_tuple", join.per(), "ns")
	n := float64(max(timedBatches, 1))
	return float64(insert.ns) / 1e3 / n, float64(sel.ns+join.ns) / 1e3 / n, nil
}

// classifier adapts the deployment's online classifier to the engine's
// chooser, as rld.NewEngine does.
func classifier(dep *rld.Deployment) engine.PlanChooser {
	return engine.ChooserFunc(func(snap stats.Snapshot) rld.Plan {
		p, _ := dep.Classify(snap)
		return p
	})
}

// backend is what the bare-substrate replay needs of Engine and Cluster.
type backend interface {
	Ingest(b *stream.Batch) error
	Drain()
	Checkpoint()
}

// replayBackend drives a started backend with no session on top: Ingest
// timed alone, then Ingest→Drain as one round trip, one batch in flight.
func replayBackend(f *feed, be backend) (ingest, rtt, ckpt timer, err error) {
	total := f.spec.warmCount() + replayBatches
	for g := 0; g < total; g++ {
		b := f.emit(g)
		t0 := time.Now()
		if err = be.Ingest(b); err != nil {
			return
		}
		t1 := time.Now()
		be.Drain()
		if g >= f.spec.warmCount() {
			ingest.add(t1.Sub(t0), 1)
			rtt.add(time.Since(t0), 1)
		}
		if g >= f.spec.warmCount() && g%ckptBatches == 0 {
			t0 := time.Now()
			be.Checkpoint()
			ckpt.add(time.Since(t0), 1)
		}
	}
	return
}

// replayEngine drives a bare engine.Engine and returns its round trip in µs.
func replayEngine(f *feed, dep *rld.Deployment, out layerSet) (float64, error) {
	e, err := engine.New(f.query, dep.Physical.Assign, nodes, classifier(dep), engineConfig())
	if err != nil {
		return 0, err
	}
	e.Start()
	ingest, rtt, ckpt, err := replayBackend(f, e)
	e.Stop()
	if err != nil {
		return 0, err
	}
	out.put("engine.ingest_us_per_batch", ingest.per()/1e3, "us")
	out.put("engine.batch_rtt_us", rtt.per()/1e3, "us")
	out.put("checkpoint.ms", ckpt.per()/1e6, "ms")
	return rtt.per() / 1e3, nil
}

// replayCluster drives a bare netrt.Cluster — two worker processes, the
// same feed — and crashes and respawns one of them.
func replayCluster(f *feed, dep *rld.Deployment, engineRTT float64, out layerSet) error {
	t0 := time.Now()
	c, err := netrt.NewCluster(f.query, dep.Physical.Assign, nodes, netrt.ClusterConfig{Engine: engineConfig()})
	if err != nil {
		return err
	}
	out.put("netrt.spawn_ms", ms(time.Since(t0)), "ms")
	c.SetChooser(classifier(dep))
	c.Start()
	defer c.Stop()
	_, rtt, ckpt, err := replayBackend(f, c)
	if err != nil {
		return err
	}
	node := crashNode(dep)
	if err := c.Crash(node, rld.CheckpointRecovery); err != nil {
		return err
	}
	t0 = time.Now()
	if err := c.Recover(node); err != nil {
		return err
	}
	out.put("netrt.respawn_ms", ms(time.Since(t0)), "ms")
	out.put("netrt.batch_rtt_us", rtt.per()/1e3, "us")
	out.put("netrt.hop_tax_us", (rtt.per()/1e3-engineRTT)/float64(len(f.query.Ops)), "us")
	out.put("netrt.checkpoint_ms", ckpt.per()/1e6, "ms")
	return nil
}

// replayWire drives the batch codec of internal/wire.
func replayWire(f *feed, out layerSet) error {
	var encode, decode timer
	var bytes int64
	var e wire.Enc
	for g := 0; g < replayBatches; g++ {
		b := f.emit(g)
		e.B = e.B[:0]
		t0 := time.Now()
		wire.EncodeBatch(&e, b)
		encode.add(time.Since(t0), b.Len())
		bytes += int64(len(e.B))
		t0 = time.Now()
		d := wire.Dec{B: e.B}
		got, err := wire.DecodeBatch(&d)
		decode.add(time.Since(t0), b.Len())
		if err != nil || got.Len() != b.Len() {
			return fmt.Errorf("wire round trip of batch %d: %d tuples, %v", g, got.Len(), err)
		}
	}
	out.put("wire.encode_ns_per_tuple", encode.per(), "ns")
	out.put("wire.decode_ns_per_tuple", decode.per(), "ns")
	out.put("wire.bytes_per_tuple", float64(bytes)/float64(max(encode.units, 1)), "B")
	return nil
}

// replayWAL drives internal/wal as the engine's durable ingest does: one
// Append and one Sync per batch, a Barrier and Truncate per checkpoint
// period, and at the end a Replay of what the last barrier left.
func replayWAL(f *feed, dir string, out layerSet) (appendSyncUs float64, err error) {
	dir, err = os.MkdirTemp(dir, "walreplay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var app, sync, barrier, replay timer
	var tuples int64
	ops := []int{1}
	for g := 0; g < replayBatches; g++ {
		b := f.emit(g)
		t0 := time.Now()
		if err := l.Append(wal.Record{Ops: ops, Batch: b}); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			return 0, err
		}
		app.add(t1.Sub(t0), 1)
		sync.add(time.Since(t1), 1)
		tuples += int64(b.Len())
		if g == ckptBatches {
			t0 := time.Now()
			if err := l.Barrier(); err != nil {
				return 0, err
			}
			if err := l.Truncate(); err != nil {
				return 0, err
			}
			barrier.add(time.Since(t0), 1)
		}
	}
	var size int64
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			size += st.Size()
		}
	}
	replayed := 0
	t0 := time.Now()
	if err := l.Replay(func(r wal.Record) error { replayed += r.Batch.Len(); return nil }); err != nil {
		return 0, err
	}
	replay.add(time.Since(t0), replayed)
	_, syncs, syncNs := l.Stats()
	out.put("wal.append_us_per_batch", app.per()/1e3, "us")
	out.put("wal.sync_us", float64(syncNs)/1e3/float64(max(syncs, 1)), "us")
	out.put("wal.syncs_per_batch", float64(syncs)/float64(replayBatches), "count")
	out.put("wal.bytes_per_tuple", float64(size)/float64(max(replayed, 1)), "B")
	out.put("wal.barrier_ms", barrier.per()/1e6, "ms")
	out.put("wal.replay_ms_per_ktuple", replay.per()*1e3/1e6, "ms")
	return (app.per() + sync.per()) / 1e3, nil
}

// replayClassify times the deployment's classifier on the statistics the
// optimizer was given.
func replayClassify(dep *rld.Deployment, out layerSet) float64 {
	snap := stats.Snapshot{Rates: map[string]float64{}}
	for _, op := range dep.Query.Ops {
		snap.Sels = append(snap.Sels, op.Sel)
	}
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if p, _ := dep.Classify(snap); p == nil {
			return 0
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / n
	out.put("core.classify_ns", ns, "ns")
	return ns / 1e3
}

// replayGen times the harness's own batch rebasing, so the budget table can
// show that the generator is not what is being measured.
func replayGen(f *feed, out layerSet) float64 {
	const n = 20000
	t0 := time.Now()
	for g := 0; g < n; g++ {
		f.emit(g)
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3 / n
	out.put("gen.us_per_batch", us, "us")
	return us
}
