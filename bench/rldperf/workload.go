package main

import (
	"fmt"
	"math/rand"
	"sort"

	"rld"
	"rld/internal/gen"
	"rld/internal/stream"
)

// spec fixes one workload: the query shape, the feed's statistics, and
// which extra layer (process boundary, write-ahead log) the pipeline runs
// through. The four specs form a 2×2 of feed × extra layer, so each added
// layer is measured as the difference between two workloads that share a
// feed.
type spec struct {
	name string
	why  string

	streams int     // N of the N-way join
	batch   int     // tuples per batch
	rate    float64 // virtual tuples/second per stream
	span    float64 // window length, virtual seconds
	keys    int64   // uniform key domain; window rows / keys = matches per probe
	// regime is the half-period, in virtual seconds, of the square wave
	// that switches the payload distribution (and with it the observed
	// selectivity of the selection) between two regimes; 0 keeps the
	// feed steady.
	regime float64

	distributed bool // run under WithDistributed(2)
	durable     bool // run under WithExactlyOnce(dir)
	// gated workloads are the ones BENCHMARK.json lists. The other two run,
	// print and A/A like them, but their numbers ride on process switches
	// and fsync, which on the sandbox repeat only within 20–50 % (see
	// bench/README.md), so no bound is put on them.
	gated bool

	// segBatches is the work of one closed-loop segment: a whole number of
	// ticks, sized so a segment takes 50–100 ms on the sandbox — short
	// enough to sit inside one of the machine's speed modes, long enough
	// that the clock reads around it do not matter.
	segBatches int

	// pacedRate is the open-loop offered load of the paced phase in batches
	// per wall second: about 40 % of the serial capacity measured on the
	// 2-vCPU sandbox at the commit that added the benchmark. It is a
	// constant so that every later commit is offered the same load.
	pacedRate float64
}

// Every pipeline ticks once per tickBatches batches of virtual time and
// checkpoints once per ckptTicks ticks. Virtual time is data time: with
// the session defaults (5 s, 30 s) and a feed this dense the control path
// would fire hundreds of times per wall second.
const (
	tickBatches = 150
	ckptTicks   = 6
	// cycleTicks is the length of one pre-generated feed cycle in control
	// ticks; every regime half-period divides it.
	cycleTicks = 24
)

var specs = []spec{
	{
		name:    "engine_join",
		why:     "3-way join, 100-tuple batches, ~3 matches/probe, in-process: window probes and stage execution dominate; wire, WAL, netrt idle",
		streams: 3, batch: 100, rate: 1000, span: 12, keys: 4096,
		gated:      true,
		segBatches: 4 * tickBatches, pacedRate: 3300,
	},
	{
		name:    "net_join",
		why:     "engine_join's feed under WithDistributed(2): the difference is the leader-worker RPC and wire codec tax; recovery is SIGKILL + respawn",
		streams: 3, batch: 100, rate: 1000, span: 12, keys: 4096,
		distributed: true,
		segBatches:  tickBatches, pacedRate: 670,
	},
	{
		name:    "engine_ingest",
		why:     "5-way join, 20-tuple batches, regime-switching payloads, few matches: admission, classification, window insert/expire and hand-off dominate",
		streams: 5, batch: 20, rate: 400, span: 12, keys: 8192, regime: 9,
		gated:      true,
		segBatches: 20 * tickBatches, pacedRate: 10000,
	},
	{
		name:    "engine_durable",
		why:     "engine_ingest's feed under WithExactlyOnce: the difference is the durability tax (append, CRC, fsync, dedup, barrier); recovery adds WAL replay",
		streams: 5, batch: 20, rate: 400, span: 12, keys: 8192, regime: 9,
		durable:    true,
		segBatches: 3 * tickBatches, pacedRate: 2400,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// batchesPerSecond is the feed's density in batches per virtual second.
func (s *spec) batchesPerSecond() float64 {
	return float64(s.streams) * s.rate / float64(s.batch)
}

// tickEvery is the control period in virtual seconds.
func (s *spec) tickEvery() float64 { return tickBatches / s.batchesPerSecond() }

// ckptEvery is the checkpoint period in virtual seconds.
func (s *spec) ckptEvery() float64 { return ckptTicks * s.tickEvery() }

// warmBatches is the number of batches after which every window holds a
// full span of tuples.
func (s *spec) warmBatches() int { return int(s.span*s.batchesPerSecond()) + s.streams }

// newQuery builds the workload's N-way join. The declared rates are the
// feed's own, so the optimizer plans for the load it will see.
func (s *spec) newQuery() *rld.Query {
	q := rld.NewNWayJoin(s.name, s.streams, s.rate)
	q.WindowSeconds = s.span
	return q
}

// regimeDist is the payload distribution of a regime-switching feed:
// Uniform(0,100) in even half-periods, Uniform(0,50) in odd ones, so the
// selection's pass fraction doubles when the regime flips. It reads the
// source's own clock, which is why it holds the source.
type regimeDist struct {
	src    *gen.Source
	period float64
}

func (d *regimeDist) Sample(rng *rand.Rand) float64 {
	hi := 100.0
	if int(d.src.Now()/d.period)%2 == 1 {
		hi = 50
	}
	return rng.Float64() * hi
}

func (d *regimeDist) Mean() float64 { return 37.5 }

// feed is one pre-generated cycle of batches plus what is needed to replay
// it for ever: reuse c of the cycle shifts every timestamp by c cycle
// lengths and every sequence number by c times the stream's tuple count,
// so per-stream timestamps never decrease and tuple IDs never repeat
// (exactly-once deduplicates on slot × seq).
type feed struct {
	spec  *spec
	query *rld.Query
	// cycle holds the template batches merged in leading-timestamp order.
	cycle []*stream.Batch
	// slot[i] is cycle[i]'s stream slot in the query's schema.
	slot []int
	// dur is the cycle length in virtual seconds.
	dur float64
	// perCycle[slot] is the stream's batch count per cycle.
	perCycle []int
	// pos[slot][j] is the cycle index of the stream's j-th batch.
	pos [][]int
	// scratch[slot] is the batch emit rebases into; Ingest copies what it
	// keeps, so one per stream is enough for one producer.
	scratch []*stream.Batch
}

// newFeed generates the workload's cycle from seed.
func newFeed(s *spec, seed int64) *feed {
	f := &feed{spec: s, query: s.newQuery()}
	f.dur = cycleTicks * s.tickEvery()
	type tagged struct {
		b    *stream.Batch
		slot int
	}
	var all []tagged
	for slot, name := range f.query.Streams {
		src := gen.NewSource(name, gen.ConstProfile(s.rate), gen.KeyDist{Cold: s.keys}, gen.Uniform{A: 0, B: 100}, seed*1000003+int64(slot)*7919)
		if s.regime > 0 {
			src.Values = &regimeDist{src: src, period: s.regime}
		}
		n := 0
		for {
			b := stream.NewSizedBatch(name, 1, s.batch)
			for b.Len() < s.batch && src.AppendNext(b) {
			}
			// Only full batches wholly inside the cycle are kept, so every
			// batch has the same size and the cycle length is exact.
			if b.Len() < s.batch || float64(b.LastTs()) >= f.dur {
				break
			}
			all = append(all, tagged{b, slot})
			n++
		}
		f.perCycle = append(f.perCycle, n)
		f.scratch = append(f.scratch, stream.NewSizedBatch(name, 1, s.batch))
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].b.FirstTs() < all[j].b.FirstTs() })
	f.pos = make([][]int, len(f.query.Streams))
	for i, t := range all {
		f.cycle = append(f.cycle, t.b)
		f.slot = append(f.slot, t.slot)
		f.pos[t.slot] = append(f.pos[t.slot], i)
	}
	return f
}

// emit returns global batch g — template g mod len(cycle), rebased by
// g / len(cycle) cycles. The result is valid until the next emit of a
// batch of the same stream.
func (f *feed) emit(g int) *stream.Batch {
	c, i := g/len(f.cycle), g%len(f.cycle)
	t := f.cycle[i]
	slot := f.slot[i]
	dst := f.scratch[slot]
	dst.Reset()
	dt := stream.Time(float64(c) * f.dur)
	dseq := uint64(c) * uint64(f.perCycle[slot]*f.spec.batch)
	for k := range t.Seq {
		dst.Seq = append(dst.Seq, t.Seq[k]+dseq)
		dst.Ts = append(dst.Ts, t.Ts[k]+dt)
		dst.Arr = append(dst.Arr, t.Arr[k]+dt)
	}
	dst.Key = append(dst.Key, t.Key...)
	dst.Vals = append(dst.Vals, t.Vals...)
	return dst
}

// lastTs is global batch g's last timestamp without materialising it.
func (f *feed) lastTs(g int) float64 {
	c, i := g/len(f.cycle), g%len(f.cycle)
	return float64(f.cycle[i].LastTs()) + float64(c)*f.dur
}

// batchOf maps a tuple identity back to the global index of the batch that
// carried it. Every batch is full, so a stream's seq / batch size is its
// running batch number.
func (f *feed) batchOf(slot int, seq uint64) int {
	j := int(seq) / f.spec.batch
	n := f.perCycle[slot]
	return (j/n)*len(f.cycle) + f.pos[slot][j%n]
}

func (f *feed) String() string {
	return fmt.Sprintf("%d batches × %d tuples per %.1f virtual s cycle", len(f.cycle), f.spec.batch, f.dur)
}
