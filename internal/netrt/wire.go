// Package netrt is the multi-process network substrate: each node of the
// cluster is a real OS process (cmd/rldworker, or a re-exec of the host
// binary) owning its operators' join-window state through the same
// engine.NodeCore the in-process engine runs, and the leader — embedded in
// the caller's process — is an engine.Engine, the same router the
// in-process substrate runs: routing table, placement, plan classification,
// statistics, per-node queues, backpressure, and the down/parked failure
// state, the checkpoint and the write-ahead log are the engine's, not this
// package's. What this package owns is the engine.Transport under that
// router (Cluster) — the RPCs, process spawn, kill and reap, failure
// detection (heartbeat, process exit, a failed call — each reported to the
// router's MarkDown) — plus the worker loop and the wire codec: mechanisms,
// and no state a recovery needs. Leader and workers speak a
// length-prefixed binary TCP protocol with no dependencies outside the
// standard library; stream.Batch columns are serialized directly onto the
// wire, so the columnar hot path survives the hop. Crash here is a literal
// SIGKILL of the worker process, and Recover respawns it for the router to
// restore from its checkpoint — the chaos conformance tests run against
// real process death.
package netrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"

	"rld/internal/stream"
	"rld/internal/wire"
)

const (
	// protoMagic opens every Hello frame ("RLD1").
	protoMagic = 0x524C4431
	// ProtoVersion is the wire protocol version; leader and worker must
	// match exactly. v3 dropped the clear frame no leader sent, renumbering
	// the frames after it; v4 dropped the three frames that drove a
	// write-ahead log in each worker (the log is the leader's router's); v5
	// has a stage result carry the stage's own counts, not the worker's
	// running totals (the counters are the leader's router's).
	ProtoVersion = 5
	// MaxFrame bounds a single frame's payload. Frames beyond it are
	// rejected with ErrFrameTooLarge before any allocation.
	MaxFrame = 64 << 20
	// readStepMin and readStepMax bound how much of a frame readFrame makes
	// room for ahead of the bytes: the step starts at the first, doubles
	// with what has arrived, and stops at the second.
	readStepMin, readStepMax = 64 << 10, 1 << 20
	// DefaultStageChunk is the soft bound on one stage frame's partials
	// payload. A hop whose partials encode past it travels as several
	// frames (frameStagePart… + frameStageResult) instead of one — join
	// fanout can multiply a batch far beyond MaxFrame, and the chunking
	// keeps every individual frame small no matter how large a logical
	// hop grows.
	DefaultStageChunk = 8 << 20
)

// Typed wire-protocol errors: every malformed input the protocol can see
// maps to one of these (matched with errors.Is) — never a panic or a hang.
var (
	// ErrFrameTooLarge reports a frame header announcing a payload beyond
	// MaxFrame.
	ErrFrameTooLarge = errors.New("netrt: frame exceeds size limit")
	// ErrTruncatedFrame reports a connection that ended mid-frame.
	ErrTruncatedFrame = errors.New("netrt: truncated frame")
	// ErrVersionMismatch reports a worker handshake with a different
	// protocol version.
	ErrVersionMismatch = errors.New("netrt: protocol version mismatch")
	// ErrStaleEpoch reports a worker from a previous leader incarnation
	// (its handshake epoch does not match the live leader's).
	ErrStaleEpoch = errors.New("netrt: stale worker epoch")
	// ErrBadFrame reports a structurally invalid frame or payload. It is
	// the shared wire.ErrCorrupt sentinel, so codec-level decode failures
	// (which latch wire.ErrCorrupt) match it without re-wrapping.
	ErrBadFrame = wire.ErrCorrupt
	// ErrWorkerDown reports an RPC attempted against a crashed worker.
	ErrWorkerDown = errors.New("netrt: worker down")
	// ErrRemote reports a worker-side error frame with no more specific
	// code — the remote detail rides along as wrapped text.
	ErrRemote = errors.New("netrt: remote error")
	// ErrStartupTimeout reports workers that failed to complete their
	// handshake within startupTimeout.
	ErrStartupTimeout = errors.New("netrt: startup timeout")
)

// frameType tags each frame's payload.
type frameType byte

const (
	frameHello          frameType = iota + 1 // worker → leader: magic, version, node, epoch
	frameWelcome                             // leader → worker: JSON setup (query + config)
	frameError                               // either way: code + message, then close
	frameInsert                              // leader → worker: ops + batch columns
	frameStage                               // leader → worker: op + partials
	frameStageResult                         // worker → leader: the stage's own sel counts + partials
	frameSnapshot                            // leader → worker: op
	frameSnapshotResult                      // worker → leader: optional batch
	frameRestore                             // leader → worker: op + optional batch
	frameOK                                  // worker → leader: empty ack
	framePing                                // leader → worker: liveness probe
	framePong                                // worker → leader: liveness reply
	frameQuit                                // leader → worker: clean shutdown
	frameStagePart                           // worker → leader: partials continuation before the stage result
)

// Error-frame codes, mapped back to the typed errors on decode.
const (
	codeGeneric byte = iota
	codeVersionMismatch
	codeStaleEpoch
	codeBadFrame
)

// errorToCode maps a typed error to its wire code.
func errorToCode(err error) byte {
	switch {
	case errors.Is(err, ErrVersionMismatch):
		return codeVersionMismatch
	case errors.Is(err, ErrStaleEpoch):
		return codeStaleEpoch
	case errors.Is(err, ErrBadFrame):
		return codeBadFrame
	}
	return codeGeneric
}

// codeToError reconstructs the typed error from an error frame.
func codeToError(code byte, msg string) error {
	switch code {
	case codeVersionMismatch:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, msg)
	case codeStaleEpoch:
		return fmt.Errorf("%w: %s", ErrStaleEpoch, msg)
	case codeBadFrame:
		return fmt.Errorf("%w: %s", ErrBadFrame, msg)
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}

// decodeError reconstructs the typed error an error frame's payload
// carries.
func decodeError(payload []byte) error {
	d := wire.Dec{B: payload}
	code := d.U8()
	msg := d.Str()
	if d.Err != nil {
		return d.Err
	}
	return codeToError(code, msg)
}

// wireConn wraps one TCP connection with buffered framed I/O and reusable
// encode/decode scratch. Not safe for concurrent use; callers serialize
// (the leader holds a per-worker call mutex, the worker is single-threaded).
type wireConn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte // read payload scratch, reused across frames
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}
}

func (wc *wireConn) Close() error { return wc.c.Close() }

// writeFrame sends one frame: u32 little-endian payload length, u8 type,
// payload. A payload beyond MaxFrame is refused before any bytes hit the
// wire, so the connection stays frame-aligned — the peer's readFrame
// would reject the length anyway, but by then the stream is poisoned.
func (wc *wireConn) writeFrame(t frameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := wc.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := wc.w.Write(payload); err != nil {
		return err
	}
	return wc.w.Flush()
}

// writeError best-effort sends a typed error frame (used just before
// closing a rejected connection).
func (wc *wireConn) writeError(err error) {
	var e wire.Enc
	e.U8(errorToCode(err))
	e.Str(err.Error())
	_ = wc.writeFrame(frameError, e.B)
}

// readFrame reads one frame. A connection ending cleanly between frames
// returns io.EOF; ending mid-frame returns ErrTruncatedFrame; a length
// beyond MaxFrame returns ErrFrameTooLarge without reading the payload.
// The header's length is only a claim, so the scratch grows as the bytes
// arrive, a step at a time: a frame costs memory in proportion to what was
// sent, not to what was announced. The returned payload aliases the
// connection's scratch buffer and is valid until the next readFrame.
func (wc *wireConn) readFrame() (frameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(wc.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncatedFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	t := frameType(hdr[4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	wc.buf = wc.buf[:0]
	for have := 0; have < int(n); have = len(wc.buf) {
		step := min(int(n)-have, max(have, readStepMin), readStepMax)
		wc.buf = slices.Grow(wc.buf, step)[:have+step]
		if _, err := io.ReadFull(wc.r, wc.buf[have:]); err != nil {
			return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncatedFrame, err)
		}
	}
	return t, wc.buf, nil
}

// helloMsg is the worker's handshake.
type helloMsg struct {
	node  int
	epoch uint64
}

func encodeHello(node int, epoch uint64) []byte {
	var e wire.Enc
	e.U32(protoMagic)
	e.U16(ProtoVersion)
	e.U32(uint32(node))
	e.U64(epoch)
	return e.B
}

// decodeHello validates magic and version; epoch/node validation is the
// leader's (it knows the live epoch and cluster size).
func decodeHello(payload []byte) (helloMsg, error) {
	d := wire.Dec{B: payload}
	magic := d.U32()
	ver := d.U16()
	node := d.U32()
	epoch := d.U64()
	if d.Err != nil {
		return helloMsg{}, d.Err
	}
	if magic != protoMagic {
		return helloMsg{}, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, magic)
	}
	if ver != ProtoVersion {
		return helloMsg{}, fmt.Errorf("%w: worker speaks v%d, leader v%d", ErrVersionMismatch, ver, ProtoVersion)
	}
	return helloMsg{node: int(node), epoch: epoch}, nil
}

// encodePartials appends a slice of join partials: count, then per partial
// the populated-slot mask followed by each populated part in ascending slot
// order (seq, ts, key, arrival, payload).
func encodePartials(e *wire.Enc, sch *stream.JoinSchema, ps []*stream.Joined) {
	e.U32(uint32(len(ps)))
	for _, p := range ps {
		var mask uint64
		for slot := 0; slot < sch.Len(); slot++ {
			if p.Has(slot) {
				mask |= 1 << uint(slot)
			}
		}
		e.U64(mask)
		for slot := 0; slot < sch.Len(); slot++ {
			t, ok := p.Part(slot)
			if !ok {
				continue
			}
			e.U64(t.Seq)
			e.F64(float64(t.Ts))
			e.I64(t.Key)
			e.F64(float64(t.Arrival))
			e.U16(uint16(len(t.Vals)))
			for _, v := range t.Vals {
				e.F64(v)
			}
		}
	}
}

// partialWireSize returns the exact encoded size of one partial under
// encodePartials: the slot mask plus, per populated slot, the fixed tuple
// header and its payload values.
func partialWireSize(sch *stream.JoinSchema, p *stream.Joined) int {
	n := 8 // mask
	for slot := 0; slot < sch.Len(); slot++ {
		t, ok := p.Part(slot)
		if !ok {
			continue
		}
		n += 8 + 8 + 8 + 8 + 2 + 8*len(t.Vals)
	}
	return n
}

// splitPartials partitions ps into consecutive runs whose encodePartials
// payloads each stay within limit (plus the 4-byte count header). A single
// partial larger than limit still gets its own chunk — writeFrame's
// MaxFrame check is the hard stop. Order is preserved; an empty input
// yields no chunks.
func splitPartials(sch *stream.JoinSchema, ps []*stream.Joined, limit int) [][]*stream.Joined {
	if len(ps) == 0 {
		return nil
	}
	var chunks [][]*stream.Joined
	start, size := 0, 0
	for i, p := range ps {
		s := partialWireSize(sch, p)
		if i > start && size+s > limit {
			chunks = append(chunks, ps[start:i])
			start, size = i, 0
		}
		size += s
	}
	return append(chunks, ps[start:])
}

// partHeader is the fixed wire size of one part: seq, ts, key, arrival and
// the payload count.
const partHeader = 8 + 8 + 8 + 8 + 2

// scanPartials walks an encodePartials payload without building anything and
// returns how many partials and payload values it holds. It is what lets
// decodePartials size a block from untrusted bytes: every count it returns
// has been paid for by bytes actually present (a partial costs at least its
// 8-byte mask, a value 8 bytes), and a payload it accepts decodes without
// error, to rows that hold what was sent: the parts of each partial share
// one key, the only one a row stores.
func scanPartials(d wire.Dec, sch *stream.JoinSchema) (rows, nvals int, err error) {
	rows = int(d.U32())
	// Each partial costs at least a mask on the wire.
	if d.Err == nil && uint64(rows)*8 > uint64(len(d.B)) {
		return 0, 0, fmt.Errorf("%w: partial count exceeds payload", ErrBadFrame)
	}
	for i := 0; i < rows && d.Err == nil; i++ {
		mask := d.U64()
		if mask>>uint(sch.Len()) != 0 {
			return 0, 0, fmt.Errorf("%w: partial mask has out-of-schema slots", ErrBadFrame)
		}
		var key []byte
		for ; mask != 0 && d.Err == nil; mask &= mask - 1 {
			if hdr := d.Take(partHeader); hdr != nil {
				// A row stores one key for all its parts (seq, ts, key, ...).
				if k := hdr[16:24]; key == nil {
					key = k
				} else if !bytes.Equal(k, key) {
					return 0, 0, fmt.Errorf("%w: parts of one partial disagree on the key", ErrBadFrame)
				}
				nv := int(binary.LittleEndian.Uint16(hdr[partHeader-2:]))
				d.Take(8 * nv)
				nvals += nv
			}
		}
	}
	return rows, nvals, d.Err
}

// decodePartials rebuilds partials into dst (pass an empty pooled slice), all
// of them rows of one block sized by scanPartials first — so a malformed
// payload fails typed before anything is acquired. Parts are applied in
// ascending slot order, which reproduces the Ts=max / Arrival=min aggregates
// SetPart folds exactly as the sender computed them.
func decodePartials(d *wire.Dec, sch *stream.JoinSchema, dst []*stream.Joined) ([]*stream.Joined, error) {
	n, nvals, err := scanPartials(*d, sch)
	if err != nil {
		d.Err = err
		return dst, err
	}
	d.U32() // the count, which the scan has read and checked
	if n == 0 {
		return dst, nil
	}
	blk := sch.AcquireBlock(n, nvals)
	for i := 0; i < n; i++ {
		j := blk.Row()
		for mask := d.U64(); mask != 0; mask &= mask - 1 {
			slot := bits.TrailingZeros64(mask)
			seq := d.U64()
			ts := stream.Time(d.F64())
			key := d.I64()
			arr := stream.Time(d.F64())
			vals := blk.AddPart(j, slot, seq, ts, key, arr, int(d.U16()))
			for v := range vals {
				vals[v] = d.F64()
			}
		}
		dst = append(dst, j)
	}
	return dst, nil
}
