package netrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"rld/internal/stream"
	"rld/internal/wire"
)

// FuzzDecodePartials: decodePartials sizes a block from counts it reads off
// the wire, so whatever the bytes are it must end in a typed ErrBadFrame with
// nothing built, or in partials that encode back to exactly the bytes
// consumed — never a panic, never an allocation out of proportion to the
// input — and every block it took must be recyclable afterwards.
func FuzzDecodePartials(f *testing.F) {
	sch := fixtureSchema()
	fix := partialFixtures(sch)
	for _, ps := range [][]*stream.Joined{fix, fix[:1], fix[1:], nil} {
		var e wire.Enc
		encodePartials(&e, sch, ps)
		f.Add(e.B)
		f.Add(e.B[:len(e.B)/2])
	}
	var huge wire.Enc
	huge.U32(1 << 30)
	f.Add(huge.B)
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}) // one partial, one part, no bytes for it
	// One partial whose two parts carry different keys: a row stores one
	// key, so this must be refused, not decoded into something else.
	var split wire.Enc
	split.U32(1)
	split.U64(0b11)
	for key := int64(1); key <= 2; key++ {
		split.U64(0)
		split.F64(0)
		split.I64(key)
		split.F64(0)
		split.U16(0)
	}
	f.Add(split.B)

	f.Fuzz(func(t *testing.T, raw []byte) {
		acq0, rec0 := sch.BlockCounts()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := wire.Dec{B: raw}
		out, err := decodePartials(&d, sch, nil)
		runtime.ReadMemStats(&after)
		// A row of this schema is 144 bytes of block for at least 8 bytes of
		// input, a payload value 8 for 8; the rest is the smallest block
		// and the error text.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(48*len(raw)+32<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			if len(out) != 0 {
				t.Fatalf("a failed decode returned %d partials", len(out))
			}
		} else {
			var e wire.Enc
			encodePartials(&e, sch, out)
			if consumed := raw[:len(raw)-len(d.B)]; !bytes.Equal(e.B, consumed) {
				t.Fatalf("decoded partials encode to %x, were decoded from %x", e.B, consumed)
			}
			for _, j := range out {
				j.Release()
			}
		}
		if acq, rec := sch.BlockCounts(); acq-acq0 != rec-rec0 {
			t.Fatalf("%d blocks acquired, %d recycled", acq-acq0, rec-rec0)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader as a connection's
// whole content, then to the two payload decoders that run before a peer is
// trusted (decodeHello on the leader, decodeError on either side). Every
// outcome is a frame or a typed error — io.EOF only on a clean boundary — a
// header announcing more than MaxFrame fails before the payload buffer is
// made, nothing is allocated beyond a small multiple of the payload bytes
// that actually arrived (the header's length is only a claim), and what
// decodes re-encodes to the bytes it came from.
func FuzzReadFrame(f *testing.F) {
	frame := func(t frameType, payload []byte) []byte {
		var buf bytes.Buffer
		wc := &wireConn{w: bufio.NewWriter(&buf)}
		if err := wc.writeFrame(t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// The frames and headers wire_test.go's table tests send.
	hello := encodeHello(7, 991)
	f.Add(frame(frameHello, hello))
	f.Add(frame(frameStage, []byte("payload")))
	f.Add(append(frame(framePing, nil), frame(frameHello, hello[:3])...))
	var futureHello, errFrame wire.Enc
	futureHello.U32(protoMagic)
	futureHello.U16(ProtoVersion + 1)
	futureHello.U32(3)
	futureHello.U64(42)
	f.Add(frame(frameHello, futureHello.B))
	errFrame.U8(errorToCode(ErrStaleEpoch))
	errFrame.Str(ErrStaleEpoch.Error())
	f.Add(frame(frameError, errFrame.B))
	f.Add([]byte{1, 2})                                                                    // 2 of 5 header bytes
	f.Add(append([]byte{100, 0, 0, 0, byte(frameInsert)}, "only a little"...))             // dies mid-frame
	f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrame), byte(frameInsert), 'x')) // announces 64 MiB, sends one byte
	tooLarge := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	f.Add(append(tooLarge, byte(frameInsert)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		wc := &wireConn{r: bufio.NewReader(bytes.NewReader(raw))}
		rest := raw
		for {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ft, payload, err := wc.readFrame()
			runtime.ReadMemStats(&after)
			announced := uint64(0)
			if len(rest) >= 5 {
				announced = uint64(binary.LittleEndian.Uint32(rest))
			}
			if announced > MaxFrame {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("a header announcing %d bytes read as %v, want ErrFrameTooLarge", announced, err)
				}
				announced = 0 // refused before the buffer is made
			}
			// The payload scratch — its first step (made twice over under the
			// race detector), then regrown geometrically as bytes arrive, so
			// every copy of it sums to a small multiple of what was supplied —
			// plus the reader's 4 KiB buffer (first frame only), the error
			// text, and whatever the fuzz worker itself allocated meanwhile
			// (TotalAlloc is process-wide).
			supplied := min(announced, uint64(max(len(rest)-5, 0)))
			if got, limit := after.TotalAlloc-before.TotalAlloc, 6*supplied+2*readStepMin+64<<10; got > limit {
				t.Fatalf("reading a frame announcing %d bytes, %d of them supplied, allocated %d, limit %d", announced, supplied, got, limit)
			}
			if err != nil {
				switch {
				case err == io.EOF:
					if len(rest) != 0 {
						t.Fatalf("io.EOF with %d unread bytes: not a frame boundary", len(rest))
					}
				case errors.Is(err, ErrTruncatedFrame), errors.Is(err, ErrFrameTooLarge):
				default:
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if !bytes.Equal(payload, rest[5:5+len(payload)]) || byte(ft) != rest[4] {
				t.Fatalf("frame type %d payload %x read from %x", ft, payload, rest[:5+len(payload)])
			}
			rest = rest[5+len(payload):]

			h, err := decodeHello(payload)
			switch {
			case err == nil:
				if !bytes.Equal(encodeHello(h.node, h.epoch), payload[:len(hello)]) {
					t.Fatalf("hello %+v does not encode back to %x", h, payload)
				}
			case !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrVersionMismatch):
				t.Fatalf("decodeHello: untyped error %v", err)
			}
			err = decodeError(payload)
			typed := false
			for _, want := range []error{ErrBadFrame, ErrVersionMismatch, ErrStaleEpoch, ErrRemote} {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("decodeError(%x): untyped error %v", payload, err)
			}
			// A well-formed error frame's code survives the round trip; one
			// this version does not know reads as the generic code.
			d := wire.Dec{B: payload}
			code := d.U8()
			if d.Str(); d.Err == nil {
				if code > codeBadFrame {
					code = codeGeneric
				}
				if got := errorToCode(err); got != code {
					t.Fatalf("error frame with code %d decoded to %v, which encodes as %d", code, err, got)
				}
			}
		}
	})
}
