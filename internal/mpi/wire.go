package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The socket wire format: the mini-MPI transport's envelope semantics
// over real TCP connections, used by the spco daemon and its clients.
//
// In-process worlds (World/Proc) move packets through goroutine
// mailboxes; a daemon moves the same matching operations through framed
// binary messages instead. Frames are fixed-size and request-response:
// every WireOp a client writes earns exactly one WireReply, in order,
// so a connection is a serial stream of matching operations — the same
// discipline a NIC command queue gives real MPI matching offload.
//
// The codec is deliberately dependency-free (encoding/binary over
// bufio) and versioned by a handshake: a connecting client sends
// WireMagic+WireVersion, the server echoes it, and both sides refuse a
// mismatch, so a stale client fails fast instead of misparsing frames.

// WireMagic identifies the protocol; WireVersion its revision.
// Version 2 widened WireOp with the causal-trace context (trace id +
// parent span id) so a timeline minted client-side survives the hop
// into the daemon's flight recorder. Version 3 added the batch frame:
// a WireBatch marker followed by a count and that many op frames, so a
// client amortizes one flush and one server wakeup over N operations.
// Version 4 added crash-safe sessions: the handshake carries a session
// mode + id + last-acked sequence number (WireHello/WireWelcome), and
// every op frame carries a per-session sequence number (WireOp.Seq) the
// server journals and dedups, so a client that reconnects — to the
// same process or to a restarted one recovering from its journal —
// re-sends only the unacknowledged gap and still gets exactly-once.
const (
	WireMagic   uint32 = 0x53_50_43_4F // "SPCO"
	WireVersion uint16 = 4
)

// Wire op kinds (client → server).
const (
	// WireArrive delivers an envelope to the daemon's engine, as an
	// incoming message off the fabric: Rank/Tag/Ctx match fields, Handle
	// the sender-chosen message id returned on the eventual match.
	WireArrive byte = iota + 1

	// WirePost posts a receive: Rank/Tag/Ctx (wildcards allowed), Handle
	// the request id returned on the eventual match.
	WirePost

	// WirePhase runs a compute phase of DurationNS on the daemon engine
	// (cache flush + heater resweep), the cadence the paper's occupancy
	// claim is about.
	WirePhase

	// WireStat asks for current queue depths (reply carries PRQ/UMQ
	// lengths).
	WireStat

	// WirePing is a no-op round trip (liveness, latency probes).
	WirePing
)

// WireBatch marks a v3 batch frame. It is a frame discriminator, not an
// op kind: it never appears in WireOp.Kind (ReadWireOp rejects it), and
// a batch frame's payload is plain op frames. Each batched op earns one
// WireReply, in op order, exactly as if sent scalar.
const WireBatch byte = 6

// MaxWireBatch bounds the ops one batch frame may carry, so a corrupt
// or hostile count cannot make the server buffer unbounded input.
const MaxWireBatch = 4096

// Wire reply statuses.
const (
	// WireOK: the operation was applied; Outcome/Handle/Cycles are valid.
	WireOK byte = iota

	// WireNack: the daemon's ingress fault injection dropped or corrupted
	// the frame before it reached the engine; the client must retransmit
	// (the daemon's analogue of the fault transport's lossy wire).
	WireNack

	// WireBusy: the engine refused the arrival (bounded UMQ under the
	// drop/credit policies); retransmit after backoff.
	WireBusy

	// WireErr: malformed or unknown op; the server closes the connection.
	WireErr
)

// Arrive outcomes carried in WireReply.Outcome (mirrors
// engine.ArriveOutcome; redeclared so the codec stays a leaf package).
const (
	WireOutMatched byte = iota
	WireOutQueued
	WireOutQueuedRendezvous
	WireOutRefused
)

// WireOp is one client request frame.
type WireOp struct {
	Kind       byte
	Rank       int32
	Tag        int32
	Ctx        uint16
	Handle     uint64  // msg id (arrive) or req id (post)
	DurationNS float64 // phase length (WirePhase only)

	// Trace/Span carry the client-minted causal-trace context
	// (internal/ctrace); zero means untraced. The daemon adopts the
	// trace into its flight recorder and parents its spans under Span.
	Trace uint64
	Span  uint64

	// Seq is the op's per-session sequence number (v4): zero for
	// unsequenced ops (ephemeral connections, and read-only Stat/Ping
	// even on a session). A sequenced op is journaled under its seq
	// before the reply goes out, and a re-sent seq whose reply the
	// server still holds is answered from that reply ring instead of
	// being applied again — the dedup that keeps exactly-once across
	// reconnects and daemon restarts.
	Seq uint64
}

// WireReply is one server response frame.
type WireReply struct {
	Kind    byte // echoes the op kind
	Status  byte
	Outcome byte   // arrive outcome; for posts 1 = matched from UMQ
	Handle  uint64 // matched counterpart (req for arrive, msg for post)
	Cycles  uint64 // modeled engine cycles charged to the operation
	PRQLen  uint32 // WireStat only
	UMQLen  uint32 // WireStat only

	// Credits advertises the server's per-connection backpressure
	// window: the number of operations the client may have in flight
	// (sent but unreplied) on this connection. Zero means no window is
	// enforced — the value servers without windowing have always written
	// into these (previously reserved) bytes, so the field needs no
	// version bump. An op the server refuses for exceeding the window
	// earns a WireBusy reply; the client retransmits after draining its
	// pipeline, as it does for a bounded-UMQ refusal.
	Credits uint16
}

// Frame sizes (fixed): ops are 51 bytes (v2: +16 for trace context,
// v4: +8 for the session sequence number), replies 29 (the trailing 2
// bytes, reserved until the backpressure window, carry Credits).
const (
	wireOpSize    = 1 + 4 + 4 + 2 + 8 + 8 + 8 + 8 + 8
	wireReplySize = 1 + 1 + 1 + 8 + 8 + 4 + 4 + 2
)

// WireOpSize and WireReplySize are the fixed frame lengths, exported
// for codecs that embed frames in their own records (the daemon's op
// journal and snapshot).
const (
	WireOpSize    = wireOpSize
	WireReplySize = wireReplySize
)

// The codec core: AppendWireOp/ParseWireOp and AppendWireReply/
// ParseWireReply are the only code that knows the byte layout of a
// frame. They work on byte slices, so a caller that owns a buffer — a
// bufio.Writer's free space, a bufio.Reader's unread bytes, a journal
// record — encodes into it and decodes out of it with no copy and no
// heap allocation. The io.Writer/io.Reader entry points below are thin
// callers of the core.

// AppendWireOp appends op's request frame to b.
func AppendWireOp(b []byte, op WireOp) []byte {
	n := len(b)
	b = append(b, make([]byte, wireOpSize)...)
	f := b[n:]
	f[0] = op.Kind
	binary.BigEndian.PutUint32(f[1:5], uint32(op.Rank))
	binary.BigEndian.PutUint32(f[5:9], uint32(op.Tag))
	binary.BigEndian.PutUint16(f[9:11], op.Ctx)
	binary.BigEndian.PutUint64(f[11:19], op.Handle)
	binary.BigEndian.PutUint64(f[19:27], math.Float64bits(op.DurationNS))
	binary.BigEndian.PutUint64(f[27:35], op.Trace)
	binary.BigEndian.PutUint64(f[35:43], op.Span)
	binary.BigEndian.PutUint64(f[43:51], op.Seq)
	return b
}

// ParseWireOp decodes the request frame at the start of b, rejecting
// an unknown op kind; a b shorter than one frame is
// io.ErrUnexpectedEOF.
func ParseWireOp(b []byte) (WireOp, error) {
	if len(b) < wireOpSize {
		return WireOp{}, io.ErrUnexpectedEOF
	}
	op := WireOp{
		Kind:       b[0],
		Rank:       int32(binary.BigEndian.Uint32(b[1:5])),
		Tag:        int32(binary.BigEndian.Uint32(b[5:9])),
		Ctx:        binary.BigEndian.Uint16(b[9:11]),
		Handle:     binary.BigEndian.Uint64(b[11:19]),
		DurationNS: math.Float64frombits(binary.BigEndian.Uint64(b[19:27])),
		Trace:      binary.BigEndian.Uint64(b[27:35]),
		Span:       binary.BigEndian.Uint64(b[35:43]),
		Seq:        binary.BigEndian.Uint64(b[43:51]),
	}
	if op.Kind < WireArrive || op.Kind > WirePing {
		return op, fmt.Errorf("mpi: unknown wire op kind %d", op.Kind)
	}
	return op, nil
}

// AppendWireReply appends rep's response frame to b.
func AppendWireReply(b []byte, rep WireReply) []byte {
	n := len(b)
	b = append(b, make([]byte, wireReplySize)...)
	f := b[n:]
	f[0] = rep.Kind
	f[1] = rep.Status
	f[2] = rep.Outcome
	binary.BigEndian.PutUint64(f[3:11], rep.Handle)
	binary.BigEndian.PutUint64(f[11:19], rep.Cycles)
	binary.BigEndian.PutUint32(f[19:23], rep.PRQLen)
	binary.BigEndian.PutUint32(f[23:27], rep.UMQLen)
	binary.BigEndian.PutUint16(f[27:29], rep.Credits)
	return b
}

// ParseWireReply decodes the response frame at the start of b; a b
// shorter than one frame is io.ErrUnexpectedEOF.
func ParseWireReply(b []byte) (WireReply, error) {
	if len(b) < wireReplySize {
		return WireReply{}, io.ErrUnexpectedEOF
	}
	return WireReply{
		Kind:    b[0],
		Status:  b[1],
		Outcome: b[2],
		Handle:  binary.BigEndian.Uint64(b[3:11]),
		Cycles:  binary.BigEndian.Uint64(b[11:19]),
		PRQLen:  binary.BigEndian.Uint32(b[19:23]),
		UMQLen:  binary.BigEndian.Uint32(b[23:27]),
		Credits: binary.BigEndian.Uint16(b[27:29]),
	}, nil
}

// frameRoom returns w as a *bufio.Writer with at least n bytes free
// (flushing first when its free tail is shorter), so the caller encodes
// an n-byte frame straight into bw.AvailableBuffer(). It returns nil
// for any other writer — a hash, a bytes.Buffer, a bare conn, a
// bufio.Writer smaller than the frame — which gets the frame from a
// stack array instead (one that escapes through the interface call).
func frameRoom(w io.Writer, n int) (*bufio.Writer, error) {
	bw, ok := w.(*bufio.Writer)
	if !ok || bw.Size() < n {
		return nil, nil
	}
	if bw.Available() < n {
		return bw, bw.Flush()
	}
	return bw, nil
}

// peekFrame returns r as a *bufio.Reader along with its next n unread
// bytes, uncopied; the caller decodes them and then Discards. Errors
// follow io.ReadFull's contract: io.EOF only before the first byte,
// io.ErrUnexpectedEOF inside the frame, the partial bytes consumed. It
// returns a nil reader for anything else, including a bufio.Reader
// smaller than the frame, which takes the copying path.
func peekFrame(r io.Reader, n int) (*bufio.Reader, []byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < n {
		return nil, nil, nil
	}
	b, err := br.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		br.Discard(len(b))
	}
	return br, b, err
}

// WriteWireOp writes one request frame.
func WriteWireOp(w io.Writer, op WireOp) error {
	bw, err := frameRoom(w, wireOpSize)
	if err != nil {
		return err
	}
	if bw != nil {
		_, err = bw.Write(AppendWireOp(bw.AvailableBuffer(), op))
		return err
	}
	var b [wireOpSize]byte
	_, err = w.Write(AppendWireOp(b[:0], op))
	return err
}

// ReadWireOp reads one request frame.
func ReadWireOp(r io.Reader) (WireOp, error) {
	br, b, err := peekFrame(r, wireOpSize)
	if err != nil {
		return WireOp{}, err
	}
	if br != nil {
		op, err := ParseWireOp(b)
		br.Discard(wireOpSize)
		return op, err
	}
	var a [wireOpSize]byte
	if _, err := io.ReadFull(r, a[:]); err != nil {
		return WireOp{}, err
	}
	return ParseWireOp(a[:])
}

// WriteWireReply writes one response frame.
func WriteWireReply(w io.Writer, rep WireReply) error {
	bw, err := frameRoom(w, wireReplySize)
	if err != nil {
		return err
	}
	if bw != nil {
		_, err = bw.Write(AppendWireReply(bw.AvailableBuffer(), rep))
		return err
	}
	var b [wireReplySize]byte
	_, err = w.Write(AppendWireReply(b[:0], rep))
	return err
}

// ReadWireReply reads one response frame.
func ReadWireReply(r io.Reader) (WireReply, error) {
	br, b, err := peekFrame(r, wireReplySize)
	if err != nil {
		return WireReply{}, err
	}
	if br != nil {
		rep, err := ParseWireReply(b)
		br.Discard(wireReplySize)
		return rep, err
	}
	var a [wireReplySize]byte
	if _, err := io.ReadFull(r, a[:]); err != nil {
		return WireReply{}, err
	}
	return ParseWireReply(a[:])
}

// wireBatchHeaderSize is the batch frame header: the WireBatch marker
// plus a big-endian uint32 op count.
const wireBatchHeaderSize = 1 + 4

// ErrBatchTruncated marks a batch frame that announced N ops but whose
// payload (or header) ended early. Distinguishing it from a plain EOF
// matters to the server: a connection that closes *between* frames is a
// clean departure, but one that dies *inside* a frame it promised is a
// protocol error the server answers with a single WireErr reply before
// closing. errors.Is(err, io.ErrUnexpectedEOF) still holds on the
// wrapped error.
var ErrBatchTruncated = errors.New("mpi: batch frame truncated")

// appendBatchHeader appends the header of an n-op batch frame to b.
func appendBatchHeader(b []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(b, WireBatch), uint32(n))
}

// WriteWireBatch writes one batch frame: header, then len(ops) op
// frames back to back. The caller still owns flushing.
func WriteWireBatch(w io.Writer, ops []WireOp) error {
	if len(ops) == 0 || len(ops) > MaxWireBatch {
		return fmt.Errorf("mpi: batch of %d ops (want 1..%d)", len(ops), MaxWireBatch)
	}
	bw, err := frameRoom(w, wireBatchHeaderSize+wireOpSize)
	if err != nil {
		return err
	}
	if bw == nil {
		var h [wireBatchHeaderSize]byte
		if _, err := w.Write(appendBatchHeader(h[:0], len(ops))); err != nil {
			return err
		}
		for i := range ops {
			if err := WriteWireOp(w, ops[i]); err != nil {
				return err
			}
		}
		return nil
	}
	// A frame can be many times the writer's buffer (MaxWireBatch ops are
	// 209 KB): fill the free space with whole op frames, hand it over,
	// flush, repeat.
	b := appendBatchHeader(bw.AvailableBuffer(), len(ops))
	for {
		for len(ops) > 0 && cap(b)-len(b) >= wireOpSize {
			b = AppendWireOp(b, ops[0])
			ops = ops[1:]
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if len(ops) == 0 {
			return nil
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		b = bw.AvailableBuffer()
	}
}

// ReadWireFrame reads the next frame — a single op or a v3 batch —
// appending the decoded ops to buf[:0] and returning the result along
// with whether the frame was a batch. Passing a buf with capacity
// MaxWireBatch keeps steady-state reads allocation-free.
func ReadWireFrame(br *bufio.Reader, buf []WireOp) ([]WireOp, bool, error) {
	first, err := br.Peek(1)
	if err != nil {
		return buf[:0], false, err
	}
	buf = buf[:0]
	if first[0] != WireBatch {
		op, err := ReadWireOp(br)
		if err != nil {
			return buf, false, err
		}
		return append(buf, op), false, nil
	}
	// bufio's smallest buffer (16 bytes) holds the header.
	h, err := br.Peek(wireBatchHeaderSize)
	if err != nil {
		return buf, true, wrapBatchEOF(err)
	}
	n := binary.BigEndian.Uint32(h[1:5])
	br.Discard(wireBatchHeaderSize)
	if n == 0 || n > MaxWireBatch {
		return buf, true, fmt.Errorf("mpi: batch count %d (want 1..%d)", n, MaxWireBatch)
	}
	for i := uint32(0); i < n; i++ {
		op, err := ReadWireOp(br)
		if err != nil {
			return buf, true, wrapBatchEOF(err)
		}
		buf = append(buf, op)
	}
	return buf, true, nil
}

// wrapBatchEOF tags an EOF seen mid-batch as ErrBatchTruncated: the
// frame header promised more bytes than the stream delivered. Other
// errors (bad op kind, I/O faults) pass through unchanged.
func wrapBatchEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", ErrBatchTruncated, io.ErrUnexpectedEOF)
	}
	return err
}

// Session handshake modes (client hello, v4).
const (
	// WireSessEphemeral opens a plain connection: no session, no
	// sequence numbers, exactly the pre-v4 behaviour.
	WireSessEphemeral byte = iota

	// WireSessNew asks the server to mint a session: the welcome carries
	// the assigned id, and the client stamps Seq on every mutating op.
	WireSessNew

	// WireSessResume presents an existing session id plus the highest
	// sequence number the client holds a reply for; the server answers
	// with its own high-water mark and the client re-sends only the gap.
	WireSessResume
)

// Session handshake statuses (server welcome, v4).
const (
	// WireWelcomeEphemeral confirms a plain connection.
	WireWelcomeEphemeral byte = iota

	// WireWelcomeNew confirms a freshly minted session (Welcome.Session
	// carries the id).
	WireWelcomeNew

	// WireWelcomeResumed confirms a resumed session; Welcome.HighWater is
	// the server's highest journaled/applied sequence number.
	WireWelcomeResumed

	// WireWelcomeLost rejects a resume: the server has no record of the
	// session (restarted without a journal, or the state is gone). A
	// client with unacknowledged ops cannot guarantee exactly-once and
	// must fail; one with none may start a new session.
	WireWelcomeLost
)

// WireHello is the client half of the v4 handshake.
type WireHello struct {
	Mode      byte   // WireSessEphemeral, WireSessNew, WireSessResume
	Session   uint64 // session id (WireSessResume only)
	LastAcked uint64 // highest seq the client holds a reply for
}

// WireWelcome is the server half of the v4 handshake.
type WireWelcome struct {
	Status    byte   // WireWelcome* above
	Session   uint64 // the session id in force (0 when ephemeral)
	HighWater uint64 // server's highest applied seq (resume only)
}

// wireHelloSize covers both handshake directions: magic + version +
// mode/status byte + two u64s.
const wireHelloSize = 4 + 2 + 1 + 8 + 8

// WriteWireHello sends the client handshake.
func WriteWireHello(w io.Writer, h WireHello) error {
	var b [wireHelloSize]byte
	binary.BigEndian.PutUint32(b[0:4], WireMagic)
	binary.BigEndian.PutUint16(b[4:6], WireVersion)
	b[6] = h.Mode
	binary.BigEndian.PutUint64(b[7:15], h.Session)
	binary.BigEndian.PutUint64(b[15:23], h.LastAcked)
	_, err := w.Write(b[:])
	return err
}

// ReadWireHello validates and decodes the client handshake.
func ReadWireHello(r io.Reader) (WireHello, error) {
	var b [wireHelloSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return WireHello{}, err
	}
	if err := checkMagic(b[:]); err != nil {
		return WireHello{}, err
	}
	h := WireHello{
		Mode:      b[6],
		Session:   binary.BigEndian.Uint64(b[7:15]),
		LastAcked: binary.BigEndian.Uint64(b[15:23]),
	}
	if h.Mode > WireSessResume {
		return h, fmt.Errorf("mpi: unknown session mode %d", h.Mode)
	}
	return h, nil
}

// WriteWireWelcome sends the server handshake.
func WriteWireWelcome(w io.Writer, wl WireWelcome) error {
	var b [wireHelloSize]byte
	binary.BigEndian.PutUint32(b[0:4], WireMagic)
	binary.BigEndian.PutUint16(b[4:6], WireVersion)
	b[6] = wl.Status
	binary.BigEndian.PutUint64(b[7:15], wl.Session)
	binary.BigEndian.PutUint64(b[15:23], wl.HighWater)
	_, err := w.Write(b[:])
	return err
}

// ReadWireWelcome validates and decodes the server handshake.
func ReadWireWelcome(r io.Reader) (WireWelcome, error) {
	var b [wireHelloSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return WireWelcome{}, err
	}
	if err := checkMagic(b[:]); err != nil {
		return WireWelcome{}, err
	}
	wl := WireWelcome{
		Status:    b[6],
		Session:   binary.BigEndian.Uint64(b[7:15]),
		HighWater: binary.BigEndian.Uint64(b[15:23]),
	}
	if wl.Status > WireWelcomeLost {
		return wl, fmt.Errorf("mpi: unknown welcome status %d", wl.Status)
	}
	return wl, nil
}

// checkMagic validates the shared magic+version prefix of a handshake.
func checkMagic(b []byte) error {
	if m := binary.BigEndian.Uint32(b[0:4]); m != WireMagic {
		return fmt.Errorf("mpi: bad wire magic %#x", m)
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != WireVersion {
		return fmt.Errorf("mpi: wire version %d, want %d", v, WireVersion)
	}
	return nil
}
