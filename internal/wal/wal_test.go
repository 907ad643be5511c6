package wal

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"rld/internal/stream"
	"rld/internal/wire"
)

// testBatch builds n rows on streamName with deterministic attributes and
// a width-2 payload derived from the row index.
func testBatch(streamName string, base uint64, n int) *stream.Batch {
	b := stream.NewSizedBatch(streamName, 2, n)
	for i := 0; i < n; i++ {
		row := b.AppendRow(base+uint64(i), stream.Time(float64(i)), int64(i%7), stream.Time(float64(i)))
		row[0], row[1] = float64(i)*3, float64(i)*5
	}
	return b
}

func sameBatch(t *testing.T, got, want *stream.Batch) {
	t.Helper()
	if got.Stream != want.Stream || got.Len() != want.Len() || got.Width() != want.Width() {
		t.Fatalf("batch shape %s/%d/%d, want %s/%d/%d",
			got.Stream, got.Len(), got.Width(), want.Stream, want.Len(), want.Width())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Seq[i] != want.Seq[i] || got.Ts[i] != want.Ts[i] || got.Key[i] != want.Key[i] || got.Arr[i] != want.Arr[i] {
			t.Fatalf("row %d attrs differ", i)
		}
		gv, wv := got.ValsAt(i), want.ValsAt(i)
		for j := range wv {
			if gv[j] != wv[j] {
				t.Fatalf("row %d val %d: %v != %v", i, j, gv[j], wv[j])
			}
		}
	}
}

// replayAll collects every replayed record.
func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []Record{
		{Ops: []int{1}, Batch: testBatch("S1", 0, 5)},
		{Ops: []int{0, 2}, Batch: testBatch("S2", 100, 3)},
		{Ops: nil, Batch: testBatch("S1", 200, 1)},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Ops) != len(want[i].Ops) {
			t.Fatalf("record %d ops %v, want %v", i, got[i].Ops, want[i].Ops)
		}
		for j := range want[i].Ops {
			if got[i].Ops[j] != want[i].Ops[j] {
				t.Fatalf("record %d ops %v, want %v", i, got[i].Ops, want[i].Ops)
			}
		}
		sameBatch(t, got[i].Batch, want[i].Batch)
	}
	if appends, syncs, _ := l.Stats(); appends != 3 || syncs == 0 {
		t.Fatalf("stats appends=%d syncs=%d", appends, syncs)
	}
}

// TestBarrierTruncateDropsCoveredSegments pins the checkpoint contract:
// records before a Barrier vanish after Truncate, records after it
// survive, and a reopened log replays exactly the retained suffix.
func TestBarrierTruncateDropsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Ops: []int{1}, Batch: testBatch("S1", 0, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Ops: []int{1}, Batch: testBatch("S1", 50, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 1 || got[0].Batch.Len() != 4 {
		t.Fatalf("after truncate: %d records, want the 1 post-barrier record", len(got))
	}
	l.Close()

	// A fresh incarnation over the same directory sees the same suffix.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got = replayAll(t, l2)
	if len(got) != 1 || got[0].Batch.Len() != 4 {
		t.Fatalf("reopened log replayed %d records, want 1", len(got))
	}
}

// TestTruncateWithoutBarrierKeepsEverything: no checkpoint, no deletion.
func TestTruncateWithoutBarrierKeepsEverything(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Ops: []int{0}, Batch: testBatch("S1", 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 1 {
		t.Fatalf("truncate without barrier dropped records: %d left", len(got))
	}
}

// TestTornTailRecovery cuts a synced segment at every possible byte offset
// and requires Replay to recover exactly the records whose frames survived
// the cut — cleanly, with no error and no panic.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Ops: []int{0}, Batch: testBatch("S1", 0, 2)},
		{Ops: []int{1}, Batch: testBatch("S2", 10, 3)},
		{Ops: []int{0, 1}, Batch: testBatch("S1", 20, 1)},
	}
	var ends []int64 // byte offset at which each record's frame completes
	path := l.segPath(l.seg)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for _, end := range ends {
			if int64(cut) >= end {
				wantN++
			}
		}
		n := 0
		lr, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := lr.Replay(func(Record) error { n++; return nil }); err != nil {
			t.Fatalf("cut %d: replay error %v", cut, err)
		}
		lr.Close()
		// Remove the fresh active segment Open created so the next
		// iteration's Open does not accumulate empties.
		os.Remove(lr.segPath(lr.seg))
		if n != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, wantN)
		}
	}
}

// TestOversizedLengthIsTornTailWithoutAllocation: a record header is only a
// claim. A 20-byte segment whose header announces 60 MiB — under MaxRecord,
// so the bound alone would believe it — cannot hold that record, and must
// replay as a clean torn tail without the 60 MiB ever being allocated.
func TestOversizedLengthIsTornTailWithoutAllocation(t *testing.T) {
	dir := t.TempDir()
	var seg wire.Enc
	seg.U32(60 << 20)
	seg.U32(0) // CRC, never reached
	seg.B = append(seg.B, make([]byte, 12)...)
	path := filepath.Join(dir, "0000000000000001"+segExt)
	if err := os.WriteFile(path, seg.B, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	err := replaySegment(path, func(Record) error { n++; return nil })
	runtime.ReadMemStats(&after)
	if err != nil || n != 0 {
		t.Fatalf("replayed %d records with error %v, want a clean torn tail", n, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("replaying a 20-byte segment allocated %d bytes", got)
	}
}

// TestCorruptCRCStopsSegmentNotReplay: a flipped bit inside one segment
// ends that segment's replay but later segments still replay.
func TestCorruptCRCStopsSegmentNotReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	firstSeg := l.segPath(l.seg)
	if err := l.Append(Record{Ops: []int{0}, Batch: testBatch("S1", 0, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(); err != nil { // rotate; both segments retained (no Truncate)
		t.Fatal(err)
	}
	if err := l.Append(Record{Ops: []int{0}, Batch: testBatch("S1", 10, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the first segment.
	raw, err := os.ReadFile(firstSeg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(firstSeg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 1 || got[0].Batch.Seq[0] != 10 {
		t.Fatalf("replayed %d records, want only the second segment's record", len(got))
	}
	l.Close()
}

func TestDecodeRecordCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"unknown type": {99},
		"short ops":    {recInsert, 10, 0},
	}
	for name, payload := range cases {
		if _, err := DecodeRecord(payload); !errors.Is(err, ErrWALCorrupt) {
			t.Errorf("%s: got %v, want ErrWALCorrupt", name, err)
		}
	}
	// An op count whose list would exceed the payload must fail typed,
	// before any large allocation.
	var e wire.Enc
	e.U8(recInsert)
	e.U16(0xffff)
	if _, err := DecodeRecord(e.B); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("oversized op count: got %v, want ErrWALCorrupt", err)
	}
}

func TestOpenUnusableDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); !errors.Is(err, ErrWALDir) {
		t.Fatalf("got %v, want ErrWALDir", err)
	}
}

// TestGroupCommitCoalesces: appenders whose appends overlap, syncing
// together, must not issue one fsync per appender. The overlap is made
// explicit: in each round every writer appends, waits at a barrier until
// all have, then syncs, and waits at a second barrier until all have
// synced, so no append of the next round lands between the syncs of this
// one. (Left to the scheduler, one P runs each writer's append and sync
// back to back, and there is nothing to coalesce.)
func TestGroupCommitCoalesces(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, rounds = 8, 20
	// Two barriers per round: appended, then synced.
	barriers := make([]sync.WaitGroup, 2*rounds)
	for i := range barriers {
		barriers[i].Add(writers)
	}
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			b := testBatch("S1", uint64(w)*1000, 2)
			next := 0 // the next barrier to pass
			pass := func() {
				barriers[next].Done()
				barriers[next].Wait()
				next++
			}
			for i := 0; i < rounds; i++ {
				err := l.Append(Record{Ops: []int{0}, Batch: b})
				if err == nil {
					pass()
					err = l.Sync()
				}
				if err != nil {
					for ; next < len(barriers); next++ {
						barriers[next].Done() // let the others through the barriers left
					}
					done <- err
					return
				}
				pass()
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	appends, syncs, _ := l.Stats()
	if appends != writers*rounds {
		t.Fatalf("appends %d, want %d", appends, writers*rounds)
	}
	if syncs >= appends {
		t.Fatalf("no group commit: %d fsyncs for %d appends", syncs, appends)
	}
	if got := replayAll(t, l); len(got) != writers*rounds {
		t.Fatalf("replayed %d, want %d", len(got), writers*rounds)
	}
}

// FuzzWALRoundTrip drives Replay over arbitrary segment bytes — it must
// never panic and never report an error (corruption is recovery) — and
// over a valid frame prefix followed by the fuzzed tail, which must
// recover at least the valid prefix.
func FuzzWALRoundTrip(f *testing.F) {
	// Seeds: a real encoded record frame, a barrier frame, junk.
	var e wire.Enc
	EncodeRecord(&e, Record{Ops: []int{0, 3}, Batch: testBatch("S1", 7, 3)})
	var frame wire.Enc
	frame.U32(uint32(len(e.B)))
	frame.U32(crc32.ChecksumIEEE(e.B))
	frame.B = append(frame.B, e.B...)
	f.Add(frame.B)
	f.Add([]byte{})
	f.Add([]byte{recBarrier})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		valid := Record{Ops: []int{1}, Batch: testBatch("S2", 42, 2)}
		if err := l.Append(valid); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		// Splice the fuzzed bytes after the valid frame, as a torn tail.
		path := l.segPath(l.seg)
		l.Close()
		fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(raw); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		l2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		n := 0
		if err := l2.Replay(func(r Record) error {
			if r.Batch == nil {
				t.Fatal("replay surfaced a nil batch")
			}
			n++
			return nil
		}); err != nil {
			t.Fatalf("replay errored on fuzzed tail: %v", err)
		}
		if n < 1 {
			t.Fatalf("replay lost the valid prefix record (got %d)", n)
		}
		// A whole segment of fuzzed bytes must also replay cleanly.
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l3, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l3.Close()
		if err := l3.Replay(func(Record) error { return nil }); err != nil {
			t.Fatalf("replay errored on fuzzed segment: %v", err)
		}
		// DecodeRecord on the raw bytes: typed error or success, no panic.
		if _, err := DecodeRecord(raw); err != nil && !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("DecodeRecord returned untyped error %v", err)
		}
	})
}

// FuzzDecodeRecord: a record payload is whatever survived the disk, so
// DecodeRecord must end in ErrWALCorrupt with nothing built, in a barrier,
// or in a record that encodes back to exactly the bytes it was decoded from
// — never a panic, and never an allocation the payload did not pay for (an
// operator index costs 2 bytes, a row at least 32). The length header that
// precedes a payload on disk is replaySegment's to bound (MaxRecord);
// FuzzWALRoundTrip covers that.
func FuzzDecodeRecord(f *testing.F) {
	// The records and the corrupt payloads the table tests use.
	for _, r := range []Record{
		{Ops: []int{1}, Batch: testBatch("S1", 0, 5)},
		{Ops: []int{0, 2}, Batch: testBatch("S2", 100, 3)},
		{Ops: nil, Batch: testBatch("S1", 200, 1)},
	} {
		var e wire.Enc
		EncodeRecord(&e, r)
		f.Add(e.B)
		f.Add(e.B[:len(e.B)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{recBarrier})
	f.Add([]byte{99})
	f.Add([]byte{recInsert, 10, 0})
	f.Add([]byte{recInsert, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := DecodeRecord(raw)
		runtime.ReadMemStats(&after)
		// An int per 2-byte operator index, columns and stream name each at
		// most the payload's size, the error text, and whatever the fuzz
		// worker itself allocated meanwhile (TotalAlloc is process-wide).
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(6*len(raw)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) || rec.Batch != nil || rec.Ops != nil {
				t.Fatalf("decoded to (%+v, %v), want an empty record and ErrWALCorrupt", rec, err)
			}
			return
		}
		if rec.Batch == nil {
			if raw[0] != recBarrier {
				t.Fatalf("payload %x decoded to a barrier", raw)
			}
			return
		}
		var e wire.Enc
		EncodeRecord(&e, rec)
		if !bytes.HasPrefix(raw, e.B) {
			t.Fatalf("decoded record encodes to %x, was decoded from %x", e.B, raw)
		}
	})
}
