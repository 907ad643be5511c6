package netrt

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"rld/internal/stream"
	"rld/internal/wire"
)

// pipePair returns two framed ends of an in-memory connection.
func pipePair(t *testing.T) (*wireConn, *wireConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newWireConn(a), newWireConn(b)
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		if err := a.writeFrame(frameStage, []byte("payload")); err != nil {
			t.Error(err)
		}
	}()
	ft, payload, err := b.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if ft != frameStage || string(payload) != "payload" {
		t.Fatalf("got frame %d payload %q", ft, payload)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	a, b := pipePair(t)
	go a.Close()
	if _, _, err := b.readFrame(); err != io.EOF {
		t.Fatalf("clean close: got %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	wc := newWireConn(b)
	go func() {
		a.Write([]byte{1, 2}) // 2 of 5 header bytes
		a.Close()
	}()
	if _, _, err := wc.readFrame(); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("partial header: got %v, want ErrTruncatedFrame", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	wc := newWireConn(b)
	go func() {
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], 100) // claims 100 bytes
		hdr[4] = byte(frameInsert)
		a.Write(hdr[:])
		a.Write([]byte("only a little")) // then dies mid-frame
		a.Close()
	}()
	if _, _, err := wc.readFrame(); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("mid-frame close: got %v, want ErrTruncatedFrame", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	wc := newWireConn(b)
	go func() {
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], MaxFrame+1)
		hdr[4] = byte(frameInsert)
		a.Write(hdr[:])
	}()
	if _, _, err := wc.readFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	// A hello from a future protocol version must decode to the typed
	// mismatch error, not garbage fields.
	var e wire.Enc
	e.U32(protoMagic)
	e.U16(ProtoVersion + 1)
	e.U32(3)
	e.U64(42)
	if _, err := decodeHello(e.B); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
}

func TestHelloBadMagicAndShort(t *testing.T) {
	var e wire.Enc
	e.U32(0xdeadbeef)
	e.U16(ProtoVersion)
	e.U32(0)
	e.U64(0)
	if _, err := decodeHello(e.B); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: got %v, want ErrBadFrame", err)
	}
	if _, err := decodeHello([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short hello: got %v, want ErrBadFrame", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h, err := decodeHello(encodeHello(7, 991))
	if err != nil {
		t.Fatal(err)
	}
	if h.node != 7 || h.epoch != 991 {
		t.Fatalf("got %+v", h)
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	for _, want := range []error{ErrVersionMismatch, ErrStaleEpoch, ErrBadFrame} {
		got := codeToError(errorToCode(want), want.Error())
		if !errors.Is(got, want) {
			t.Fatalf("%v did not survive the wire: %v", want, got)
		}
	}
	if err := codeToError(codeGeneric, "boom"); err == nil {
		t.Fatal("generic code decoded to nil")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := stream.NewSizedBatch("S1", 2, 3)
	for i := 0; i < 3; i++ {
		row := b.AppendRow(uint64(i), stream.Time(float64(i)*1.5), int64(100+i), stream.Time(float64(i)))
		row[0], row[1] = float64(i)*10, float64(i)*20
	}
	var e wire.Enc
	wire.EncodeBatch(&e, b)
	d := wire.Dec{B: e.B}
	got, err := wire.DecodeBatch(&d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != "S1" || got.Len() != 3 || got.Width() != 2 {
		t.Fatalf("decoded %s len %d width %d", got.Stream, got.Len(), got.Width())
	}
	for i := 0; i < 3; i++ {
		if got.Seq[i] != b.Seq[i] || got.Ts[i] != b.Ts[i] || got.Key[i] != b.Key[i] || got.Arr[i] != b.Arr[i] {
			t.Fatalf("row %d attrs differ", i)
		}
		gv, wv := got.ValsAt(i), b.ValsAt(i)
		for j := range wv {
			if gv[j] != wv[j] {
				t.Fatalf("row %d val %d: %v != %v", i, j, gv[j], wv[j])
			}
		}
	}
}

func TestDecodeBatchCorruptRowCount(t *testing.T) {
	// A header claiming far more rows than the payload holds must fail
	// typed, before any large allocation.
	var e wire.Enc
	e.Str("S1")
	e.U16(1)
	e.U32(1 << 30)
	d := wire.Dec{B: e.B}
	if _, err := wire.DecodeBatch(&d); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("got %v, want ErrBadFrame", err)
	}
}

// fixtureSchema is the three-stream schema partialFixtures fills.
func fixtureSchema() *stream.JoinSchema {
	return stream.NewJoinSchema([]string{"S1", "S2", "S3"})
}

// partialFixtures are the partials every codec test here and
// FuzzDecodePartials' corpus are built from: one with a gap in its slots and
// uneven payloads, then ten same-sized singletons.
func partialFixtures(sch *stream.JoinSchema) []*stream.Joined {
	p := sch.Acquire()
	p.SetPart(0, 1, 10, 7, 9, []float64{1, 2})
	p.SetPart(2, 5, 12, 7, 8, []float64{3})
	ps := []*stream.Joined{p}
	for i := int64(0); i < 10; i++ {
		j := sch.Acquire()
		j.SetPart(1, uint64(i), stream.Time(i), i, stream.Time(i), []float64{1})
		ps = append(ps, j)
	}
	return ps
}

func TestPartialsRoundTrip(t *testing.T) {
	sch := fixtureSchema()
	p := partialFixtures(sch)[0]
	var e wire.Enc
	encodePartials(&e, sch, []*stream.Joined{p})
	d := wire.Dec{B: e.B}
	out, err := decodePartials(&d, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("decoded %d partials", len(out))
	}
	g := out[0]
	if !g.Has(0) || g.Has(1) || !g.Has(2) {
		t.Fatal("slot mask not preserved")
	}
	if g.Ts != p.Ts || g.Arrival != p.Arrival || g.Key() != p.Key() {
		t.Fatalf("aggregates differ: got ts=%v arr=%v key=%v, want ts=%v arr=%v key=%v",
			g.Ts, g.Arrival, g.Key(), p.Ts, p.Arrival, p.Key())
	}
	t2, ok := g.Part(2)
	if !ok || t2.Seq != 5 || len(t2.Vals) != 1 || t2.Vals[0] != 3 {
		t.Fatalf("part 2 corrupted: %+v", t2)
	}
	g.Release()
	p.Release()
}

// TestSplitPartials pins the stage-chunking invariants: order-preserving
// consecutive runs, every multi-partial chunk within the byte limit, a
// partial larger than the limit still traveling alone, and no chunks for
// an empty input.
func TestSplitPartials(t *testing.T) {
	sch := fixtureSchema()
	ps := partialFixtures(sch)[1:] // the ten singletons
	per := partialWireSize(sch, ps[0])
	if per <= 8 {
		t.Fatalf("partialWireSize = %d, want > 8", per)
	}

	if got := splitPartials(sch, nil, 1024); got != nil {
		t.Fatalf("empty input split into %d chunks", len(got))
	}
	if got := splitPartials(sch, ps, 1<<20); len(got) != 1 || len(got[0]) != 10 {
		t.Fatalf("roomy limit split into %d chunks", len(got))
	}

	limit := 3 * per
	chunks := splitPartials(sch, ps, limit)
	var flat []*stream.Joined
	for _, ch := range chunks {
		size := 0
		for _, p := range ch {
			size += partialWireSize(sch, p)
		}
		if len(ch) > 1 && size > limit {
			t.Fatalf("chunk of %d partials encodes to %d bytes (limit %d)", len(ch), size, limit)
		}
		flat = append(flat, ch...)
	}
	if len(flat) != len(ps) {
		t.Fatalf("chunks cover %d partials, want %d", len(flat), len(ps))
	}
	for i := range flat {
		if flat[i] != ps[i] {
			t.Fatalf("chunking reordered partial %d", i)
		}
	}

	// A single partial beyond the limit still gets its own chunk.
	tight := splitPartials(sch, ps[:3], 1)
	if len(tight) != 3 {
		t.Fatalf("limit 1 split 3 partials into %d chunks, want one each", len(tight))
	}
	for _, p := range ps {
		p.Release()
	}
}

// TestWriteFrameTooLarge pins the send-side guard: an oversized payload is
// refused before any bytes hit the wire, so the connection stays usable.
func TestWriteFrameTooLarge(t *testing.T) {
	a, b := pipePair(t)
	defer a.Close()
	defer b.Close()
	if err := a.writeFrame(frameInsert, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.writeFrame(framePing, nil) }()
	typ, _, err := b.readFrame()
	if err != nil || typ != framePing {
		t.Fatalf("conn poisoned after refused frame: type %d err %v", typ, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDecodePartialsBadMask(t *testing.T) {
	sch := stream.NewJoinSchema([]string{"S1", "S2"})
	var e wire.Enc
	e.U32(1)
	e.U64(1 << 5) // slot 5 of a 2-slot schema
	d := wire.Dec{B: e.B}
	if _, err := decodePartials(&d, sch, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("got %v, want ErrBadFrame", err)
	}
}
