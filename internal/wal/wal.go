// Package wal is the durability subsystem behind rld.WithExactlyOnce: a
// segment-based, length-prefixed, CRC-checked write-ahead log with
// group-commit fsync. The router (engine.Engine, over goroutine nodes and
// worker processes alike) owns one Log and appends every window mutation —
// the operator set plus the columnar batch, serialized with the shared
// internal/wire encoding — before any node applies it. Checkpoint barriers
// rotate the active segment and let Truncate drop everything a snapshot
// already covers; Replay walks the retained suffix in order after a crash,
// and restore-time dedup (NodeCore's per-operator seen sets) makes
// replaying an overlap of snapshot and log harmless.
//
// Torn tails are expected, not exceptional: a crash mid-append leaves a
// partial record whose length or CRC cannot check out, and Replay treats
// the first invalid record of a segment as that segment's end — it never
// panics and never surfaces the torn bytes as an error.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rld/internal/stream"
	"rld/internal/wire"
)

// Typed failure classes, matched with errors.Is. The rld package
// re-exports them at the public surface.
var (
	// ErrWALDir reports a log directory that cannot be created, listed,
	// or written.
	ErrWALDir = errors.New("wal: log directory unusable")
	// ErrWALCorrupt reports a record that fails its length, CRC, or
	// payload decode. Replay converts it into end-of-segment; it surfaces
	// only from DecodeRecord and the record-level helpers.
	ErrWALCorrupt = errors.New("wal: corrupt record")
)

// MaxRecord bounds one record's payload, mirroring the wire protocol's
// frame bound: a corrupt length header beyond it — or beyond the bytes the
// segment still holds — reads as a torn tail, not an allocation request.
const MaxRecord = 64 << 20

// segExt is the segment file suffix; names are zero-padded indexes so
// lexical order is replay order.
const segExt = ".wal"

// Record is one logged window mutation: the batch inserted and the
// operator indexes it was inserted into. Append serializes it immediately,
// so the caller keeps ownership of Batch.
type Record struct {
	// Ops are the join-operator indexes this batch entered.
	Ops []int
	// Batch is the inserted columnar batch.
	Batch *stream.Batch
}

// Record payload types.
const (
	recInsert  byte = 1
	recBarrier byte = 2
)

// Log is a write-ahead log over one directory of numbered segment files.
// All methods are safe for concurrent use; Sync group-commits — every
// append that completed before some in-flight fsync started is covered by
// it, and late syncers whose appends an earlier fsync already covered
// return without touching the disk.
type Log struct {
	dir string

	mu       sync.Mutex
	syncCond *sync.Cond

	f    *os.File //rldlint:guardedby mu -- active segment
	seg  uint64   //rldlint:guardedby mu -- active segment index
	segs []uint64 //rldlint:guardedby mu -- retained segment indexes, ascending (active last)
	// barrier is the segment index opened by the most recent Barrier;
	// Truncate deletes every segment before it. 0 = no barrier yet.
	barrier uint64 //rldlint:guardedby mu
	closed  bool   //rldlint:guardedby mu

	// Group-commit state: appendGen counts appends, syncedGen is the
	// generation the last completed fsync covered, syncing marks an fsync
	// in flight (its leader runs outside mu).
	appendGen uint64
	syncedGen uint64
	syncing   bool

	// enc is the append-side scratch buffer, reused under mu.
	enc wire.Enc

	// Counters for tests and the WAL-tax benchmark. syncNanos is real
	// (wall-clock) fsync latency — the one place the virtual-clock
	// discipline does not apply, because the disk lives outside it.
	appends   uint64
	syncs     uint64
	syncNanos int64
}

// Open creates (or reuses) dir and starts a fresh active segment after any
// existing ones — it never appends to a segment an earlier incarnation
// wrote, so a torn tail stays confined to the segment that tore.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	var segs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, segExt) {
			continue
		}
		idx, perr := strconv.ParseUint(strings.TrimSuffix(name, segExt), 10, 64)
		if perr != nil {
			continue
		}
		segs = append(segs, idx)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	l := &Log{dir: dir, seg: next, segs: append(segs, next)}
	l.syncCond = sync.NewCond(&l.mu)
	l.f, err = os.OpenFile(l.segPath(next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	return l, nil
}

func (l *Log) segPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%016d%s", idx, segExt))
}

// EncodeRecord appends r's payload to e: the record type, the operator
// list, then the batch columns in the shared wire encoding.
func EncodeRecord(e *wire.Enc, r Record) {
	e.U8(recInsert)
	e.U16(uint16(len(r.Ops)))
	for _, op := range r.Ops {
		e.U16(uint16(op))
	}
	wire.EncodeBatch(e, r.Batch)
}

// DecodeRecord rebuilds a record from its payload. Every malformed input
// maps to an error wrapping ErrWALCorrupt — never a panic. A barrier
// marker decodes to a Record with a nil Batch and no error.
func DecodeRecord(payload []byte) (Record, error) {
	d := wire.Dec{B: payload}
	switch typ := d.U8(); typ {
	case recBarrier:
		return Record{}, nil
	case recInsert:
	default:
		if d.Err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrWALCorrupt, d.Err)
		}
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrWALCorrupt, typ)
	}
	nOps := int(d.U16())
	if uint64(nOps)*2 > uint64(len(d.B)) {
		return Record{}, fmt.Errorf("%w: op count exceeds payload", ErrWALCorrupt)
	}
	ops := make([]int, nOps)
	for i := range ops {
		ops[i] = int(d.U16())
	}
	b, err := wire.DecodeBatch(&d)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	return Record{Ops: ops, Batch: b}, nil
}

// writeFrame appends one length-prefixed, CRC-checked record frame to the
// active segment: u32 payload length, u32 CRC-32 (IEEE) of the payload,
// payload. Caller holds mu.
func (l *Log) writeFrame(payload []byte) error {
	if l.closed {
		return fmt.Errorf("%w: log closed", ErrWALDir)
	}
	var hdr wire.Enc
	hdr.U32(uint32(len(payload)))
	hdr.U32(crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(hdr.B); err != nil {
		return fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	l.appendGen++
	l.appends++
	return nil
}

// Append logs one window mutation. The record is serialized before Append
// returns, so the caller may reuse r.Batch immediately; the bytes are
// durable only after the next Sync (or Barrier).
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc.B = l.enc.B[:0]
	EncodeRecord(&l.enc, r)
	return l.writeFrame(l.enc.B)
}

// Sync makes every append that happened-before this call durable, with
// group commit: one goroutine runs the fsync while later arrivals wait,
// and anyone whose appends a completed fsync already covered returns
// without another disk round-trip.
func (l *Log) Sync() error {
	l.mu.Lock()
	gen := l.appendGen
	for l.syncedGen < gen && l.syncing {
		l.syncCond.Wait()
	}
	if l.syncedGen >= gen {
		l.mu.Unlock()
		return nil
	}
	// Become the sync leader: fsync outside mu so appends to the
	// OS-buffered file keep flowing; they are covered by a later Sync.
	l.syncing = true
	target := l.appendGen
	f := l.f
	l.mu.Unlock()
	start := time.Now() //rldlint:allow wallclock -- fsync latency is real disk time, outside the virtual clock
	err := f.Sync()
	nanos := time.Since(start).Nanoseconds() //rldlint:allow wallclock -- fsync latency is real disk time, outside the virtual clock
	l.mu.Lock()
	l.syncing = false
	if err == nil && target > l.syncedGen {
		l.syncedGen = target
	}
	l.syncs++
	l.syncNanos += nanos
	l.syncCond.Broadcast()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: fsync: %v", ErrWALDir, err)
	}
	return nil
}

// Barrier marks a checkpoint: it appends a barrier record, makes the
// active segment durable, and rotates to a fresh segment. Everything
// appended before the Barrier lands strictly before the rotation point, so
// a snapshot taken with no appends in flight covers exactly the segments a
// later Truncate deletes.
func (l *Log) Barrier() error {
	l.mu.Lock()
	for l.syncing {
		// Wait out an in-flight group fsync; rotating under it would
		// close the file it is syncing.
		l.syncCond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("%w: log closed", ErrWALDir)
	}
	var e wire.Enc
	e.U8(recBarrier)
	if err := l.writeFrame(e.B); err != nil {
		l.mu.Unlock()
		return err
	}
	err := l.f.Sync()
	if err == nil {
		err = l.f.Close()
	} else {
		l.f.Close()
	}
	if err != nil {
		l.closed = true
		l.mu.Unlock()
		return fmt.Errorf("%w: barrier: %v", ErrWALDir, err)
	}
	l.seg++
	l.segs = append(l.segs, l.seg)
	l.barrier = l.seg
	l.syncedGen = l.appendGen
	l.syncs++
	l.f, err = os.OpenFile(l.segPath(l.seg), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		l.closed = true
		l.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	l.mu.Unlock()
	return nil
}

// Truncate deletes every segment rotated out before the most recent
// Barrier — the records a checkpoint snapshot already covers. Without a
// barrier it keeps everything.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.barrier == 0 {
		return nil
	}
	kept := l.segs[:0]
	for _, idx := range l.segs {
		if idx >= l.barrier {
			kept = append(kept, idx)
			continue
		}
		if err := os.Remove(l.segPath(idx)); err != nil && !os.IsNotExist(err) {
			l.segs = append(kept, l.segs[len(kept):]...)
			return fmt.Errorf("%w: truncate: %v", ErrWALDir, err)
		}
	}
	l.segs = kept
	return nil
}

// Replay walks every retained record in append order and hands the insert
// records to fn (barrier markers are skipped). The first invalid record of
// a segment — torn tail, bad CRC, undecodable payload — ends that segment
// and replay continues with the next one; corruption is recovery, not an
// error. fn's error aborts the walk and is returned as-is.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	segs := append([]uint64(nil), l.segs...)
	l.mu.Unlock()
	for _, idx := range segs {
		if err := replaySegment(l.segPath(idx), fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's records into fn, stopping cleanly at
// the first record whose length, CRC, or payload does not check out.
func replaySegment(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	left := st.Size() // bytes of the segment not yet read
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil // clean end, or torn mid-header
		}
		left -= int64(len(hdr))
		d := wire.Dec{B: hdr[:]}
		n, sum := d.U32(), d.U32()
		if n > MaxRecord || int64(n) > left {
			return nil // corrupt length, or torn mid-payload: nothing is allocated for it
		}
		left -= int64(n)
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil // torn mid-payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil // bit rot or torn write: stop this segment
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return nil // CRC-valid but undecodable: stop this segment
		}
		if rec.Batch == nil {
			continue // barrier marker
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Stats reports the log's lifetime append count, fsync count, and total
// fsync latency in nanoseconds.
func (l *Log) Stats() (appends, syncs uint64, syncNanos int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs, l.syncNanos
}

// Close flushes nothing (appends write straight to the OS) and closes the
// active segment. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrWALDir, err)
	}
	return nil
}
