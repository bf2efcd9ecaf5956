package mpi

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

func TestWireOpRoundTrip(t *testing.T) {
	ops := []WireOp{
		{Kind: WireArrive, Rank: 3, Tag: 42, Ctx: 1, Handle: 7},
		{Kind: WireArrive, Rank: 3, Tag: 42, Ctx: 1, Handle: 7, Trace: 99, Span: 12, Seq: 321},
		{Kind: WirePost, Rank: -1, Tag: -1, Ctx: 65535, Handle: math.MaxUint64,
			Trace: math.MaxUint64, Span: math.MaxUint64},
		{Kind: WirePhase, DurationNS: 1e5},
		{Kind: WireStat},
		{Kind: WirePing},
	}
	var buf bytes.Buffer
	for _, op := range ops {
		if err := WriteWireOp(&buf, op); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range ops {
		got, err := ReadWireOp(&buf)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != want {
			t.Errorf("op %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestWireReplyRoundTrip(t *testing.T) {
	reps := []WireReply{
		{Kind: WireArrive, Status: WireOK, Outcome: WireOutMatched, Handle: 9, Cycles: 1234},
		{Kind: WireArrive, Status: WireNack},
		{Kind: WirePost, Status: WireOK, Outcome: 1, Handle: 3, Cycles: 999},
		{Kind: WireStat, Status: WireOK, PRQLen: 17, UMQLen: 4},
		{Kind: WireArrive, Status: WireOK, Credits: 1},
		{Kind: WireArrive, Status: WireBusy, Credits: 65535},
	}
	var buf bytes.Buffer
	for _, rep := range reps {
		if err := WriteWireReply(&buf, rep); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range reps {
		got, err := ReadWireReply(&buf)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got != want {
			t.Errorf("reply %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestWireHello(t *testing.T) {
	var buf bytes.Buffer
	want := WireHello{Mode: WireSessResume, Session: 42, LastAcked: 1 << 40}
	if err := WriteWireHello(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWireHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello round trip: got %+v want %+v", got, want)
	}
	// A wrong magic must be refused.
	bad := make([]byte, 23)
	bad[5] = 1
	if _, err := ReadWireHello(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad magic")
	}

	buf.Reset()
	wantW := WireWelcome{Status: WireWelcomeResumed, Session: 42, HighWater: 977}
	if err := WriteWireWelcome(&buf, wantW); err != nil {
		t.Fatal(err)
	}
	gotW, err := ReadWireWelcome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotW != wantW {
		t.Fatalf("welcome round trip: got %+v want %+v", gotW, wantW)
	}
	if _, err := ReadWireWelcome(bytes.NewReader(bad)); err == nil {
		t.Fatal("welcome accepted bad magic")
	}
}

func TestWireHelloRejectsUnknownMode(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWireHello(&buf, WireHello{Mode: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWireHello(&buf); err == nil {
		t.Fatal("accepted unknown session mode")
	}
	buf.Reset()
	if err := WriteWireWelcome(&buf, WireWelcome{Status: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWireWelcome(&buf); err == nil {
		t.Fatal("accepted unknown welcome status")
	}
}

func TestWireOpRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWireOp(&buf, WireOp{Kind: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWireOp(&buf); err == nil {
		t.Fatal("accepted unknown op kind")
	}
	// WireBatch is a frame marker, never an op kind.
	buf.Reset()
	if err := WriteWireOp(&buf, WireOp{Kind: WireBatch}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWireOp(&buf); err == nil {
		t.Fatal("accepted WireBatch as an op kind")
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	ops := []WireOp{
		{Kind: WireArrive, Rank: 3, Tag: 42, Ctx: 1, Handle: 7},
		{Kind: WirePost, Rank: -1, Tag: -1, Ctx: 65535, Handle: math.MaxUint64},
		{Kind: WirePing},
	}
	var buf bytes.Buffer
	if err := WriteWireBatch(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, batch, err := ReadWireFrame(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !batch {
		t.Fatal("batch frame not recognised as a batch")
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Errorf("op %d: got %+v want %+v", i, got[i], ops[i])
		}
	}
}

func TestWireFrameScalarPassthrough(t *testing.T) {
	want := WireOp{Kind: WireArrive, Rank: 5, Tag: 6, Ctx: 2, Handle: 11}
	var buf bytes.Buffer
	if err := WriteWireOp(&buf, want); err != nil {
		t.Fatal(err)
	}
	// Reuse a caller buffer; the result must land in it.
	scratch := make([]WireOp, 0, 4)
	got, batch, err := ReadWireFrame(bufio.NewReader(&buf), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if batch {
		t.Fatal("scalar frame misread as batch")
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("got %+v, want [%+v]", got, want)
	}
}

func TestWireBatchRejectsBadCounts(t *testing.T) {
	if err := WriteWireBatch(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("accepted empty batch")
	}
	if err := WriteWireBatch(&bytes.Buffer{}, make([]WireOp, MaxWireBatch+1)); err == nil {
		t.Fatal("accepted oversize batch")
	}
	// A forged zero-count header must be refused on read.
	br := bufio.NewReader(bytes.NewReader([]byte{WireBatch, 0, 0, 0, 0}))
	if _, _, err := ReadWireFrame(br, nil); err == nil {
		t.Fatal("accepted zero-count batch header")
	}
	// And a count past the cap.
	br = bufio.NewReader(bytes.NewReader([]byte{WireBatch, 0xFF, 0xFF, 0xFF, 0xFF}))
	if _, _, err := ReadWireFrame(br, nil); err == nil {
		t.Fatal("accepted oversize batch header")
	}
}

// TestWireReplyCreditsBackCompat: a pre-window reply (the trailing two
// bytes zeroed, as old servers always wrote) decodes with Credits 0 —
// the field rode in reserved bytes, so no version bump was needed.
func TestWireReplyCreditsBackCompat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWireReply(&buf, WireReply{Kind: WirePing, Status: WireOK}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != wireReplySize {
		t.Fatalf("reply frame is %d bytes, want %d", len(b), wireReplySize)
	}
	if b[27] != 0 || b[28] != 0 {
		t.Fatalf("windowless reply wrote nonzero credit bytes: % x", b[27:29])
	}
	rep, err := ReadWireReply(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Credits != 0 {
		t.Fatalf("Credits = %d, want 0", rep.Credits)
	}
}

// TestWireBatchTruncation: a batch frame that promises more ops than
// the stream delivers must surface ErrBatchTruncated (and still satisfy
// errors.Is(err, io.ErrUnexpectedEOF)), whether the cut lands in the
// header or mid-payload. A truncation is how the server tells a
// malformed frame (one WireErr reply, then close) from a connection
// that departed cleanly between frames.
func TestWireBatchTruncation(t *testing.T) {
	full := func(ops []WireOp) []byte {
		var buf bytes.Buffer
		if err := WriteWireBatch(&buf, ops); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ops := []WireOp{
		{Kind: WireArrive, Rank: 1, Tag: 2, Ctx: 1, Handle: 3},
		{Kind: WirePost, Rank: 1, Tag: 2, Ctx: 1, Handle: 3},
		{Kind: WirePing},
	}
	frame := full(ops)
	cuts := []struct {
		name string
		n    int
	}{
		{"mid-header", 3},
		{"payload boundary", wireBatchHeaderSize + wireOpSize},
		{"mid-op", wireBatchHeaderSize + wireOpSize + 7},
		{"last byte short", len(frame) - 1},
	}
	for _, cut := range cuts {
		br := bufio.NewReader(bytes.NewReader(frame[:cut.n]))
		_, batch, err := ReadWireFrame(br, nil)
		if !batch {
			t.Errorf("%s: frame not flagged as batch", cut.name)
		}
		if !errors.Is(err, ErrBatchTruncated) {
			t.Errorf("%s: err = %v, want ErrBatchTruncated", cut.name, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v does not unwrap to io.ErrUnexpectedEOF", cut.name, err)
		}
	}

	// A bad op kind mid-batch is a decode error but NOT a truncation:
	// the bytes were all there, they were just wrong.
	bad := full(ops)
	bad[wireBatchHeaderSize+wireOpSize] = 99 // second op's kind byte
	_, _, err := ReadWireFrame(bufio.NewReader(bytes.NewReader(bad)), nil)
	if err == nil {
		t.Fatal("accepted bad op kind mid-batch")
	}
	if errors.Is(err, ErrBatchTruncated) {
		t.Fatalf("bad-kind error misclassified as truncation: %v", err)
	}

	// A clean EOF before any frame byte is not a truncation either.
	_, _, err = ReadWireFrame(bufio.NewReader(bytes.NewReader(nil)), nil)
	if !errors.Is(err, io.EOF) || errors.Is(err, ErrBatchTruncated) {
		t.Fatalf("empty stream: err = %v, want plain io.EOF", err)
	}
}

// Golden frames, recorded at the commit before the byte-slice codec
// core replaced the four io.Writer/io.Reader encoders: one op, one
// reply and a 3-op batch frame with every field set to a distinct,
// byte-order-revealing value. WireVersion 4's layout must not move.
var (
	goldenOp = WireOp{Kind: WireArrive, Rank: 3, Tag: -2, Ctx: 0x1234, Handle: 0x0102030405060708,
		DurationNS: 1e5, Trace: 0x1122334455667788, Span: 0x99aabbccddeeff00, Seq: 321}
	goldenReply = WireReply{Kind: WirePost, Status: WireBusy, Outcome: WireOutQueuedRendezvous,
		Handle: math.MaxUint64 - 1, Cycles: 0x0a0b0c0d0e0f1011, PRQLen: 17, UMQLen: 0xdeadbeef, Credits: 0xfffe}
	goldenBatch = []WireOp{
		goldenOp,
		{Kind: WirePost, Rank: -1, Tag: -1, Ctx: 65535, Handle: math.MaxUint64},
		{Kind: WirePing},
	}
)

const (
	goldenOpHex    = "0100000003fffffffe1234010203040506070840f86a0000000000112233445566778899aabbccddeeff000000000000000141"
	goldenReplyHex = "020202fffffffffffffffe0a0b0c0d0e0f101100000011deadbeeffffe"
	goldenBatchHex = "0600000003" + goldenOpHex +
		"02ffffffffffffffffffffffffffffffffffff0000000000000000000000000000000000000000000000000000000000000000" +
		"050000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
)

// writerFlavours are the sinks an encoder can meet: a plain io.Writer
// (the stack-array path), a bufio.Writer with room (encode in place), a
// bufio.Writer whose tail is too short for the next frame (flush, then
// encode in place) and one smaller than any frame (the stack-array
// path again). Every one must produce the same bytes.
func writerFlavours(sink *bytes.Buffer) map[string]io.Writer {
	nearFull := bufio.NewWriterSize(sink, 64)
	nearFull.Write(make([]byte, 40)) // stays buffered: 24 bytes free, less than any frame
	return map[string]io.Writer{
		"plain":      sink,
		"bufio":      bufio.NewWriter(sink),
		"bufio-tail": nearFull,
		"bufio-tiny": bufio.NewWriterSize(sink, 16),
	}
}

func TestWireGoldenBytes(t *testing.T) {
	encoders := []struct {
		name, want string
		write      func(w io.Writer) error
	}{
		{"op", goldenOpHex, func(w io.Writer) error { return WriteWireOp(w, goldenOp) }},
		{"reply", goldenReplyHex, func(w io.Writer) error { return WriteWireReply(w, goldenReply) }},
		{"batch", goldenBatchHex, func(w io.Writer) error { return WriteWireBatch(w, goldenBatch) }},
	}
	for _, enc := range encoders {
		want, err := hex.DecodeString(enc.want)
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		for name, w := range writerFlavours(&sink) {
			sink.Reset()
			if err := enc.write(w); err != nil {
				t.Fatalf("%s/%s: %v", enc.name, name, err)
			}
			if bw, ok := w.(*bufio.Writer); ok {
				if err := bw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			got := sink.Bytes()
			if name == "bufio-tail" {
				got = got[40:] // the filler that made the tail short
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s:\n got  %x\n want %x", enc.name, name, got, want)
			}
		}
	}
	if got := AppendWireOp(nil, goldenOp); hex.EncodeToString(got) != goldenOpHex {
		t.Errorf("AppendWireOp: %x", got)
	}
	if got := AppendWireReply([]byte{0xEE}, goldenReply); hex.EncodeToString(got[1:]) != goldenReplyHex || got[0] != 0xEE {
		t.Errorf("AppendWireReply after a prefix: %x", got)
	}
	raw, _ := hex.DecodeString(goldenOpHex + "ff")
	if op, err := ParseWireOp(raw); err != nil || op != goldenOp {
		t.Errorf("ParseWireOp: %+v, %v", op, err)
	}
	if _, err := ParseWireOp(raw[:wireOpSize-1]); err != io.ErrUnexpectedEOF {
		t.Errorf("ParseWireOp on a short slice: %v", err)
	}
	raw, _ = hex.DecodeString(goldenReplyHex)
	if rep, err := ParseWireReply(raw); err != nil || rep != goldenReply {
		t.Errorf("ParseWireReply: %+v, %v", rep, err)
	}
	if _, err := ParseWireReply(raw[:wireReplySize-1]); err != io.ErrUnexpectedEOF {
		t.Errorf("ParseWireReply on a short slice: %v", err)
	}
}

// readerFlavours wrap a byte stream the ways a decoder can meet it: a
// default bufio.Reader (decode in place), one fed a byte at a time (Peek
// must keep filling), one just big enough for an op frame (in place,
// with a refill before nearly every frame) and one smaller than any
// frame, which must take the copying path a plain io.Reader takes and
// never surface bufio.ErrBufferFull.
func readerFlavours(data []byte) map[string]*bufio.Reader {
	return map[string]*bufio.Reader{
		"default":  bufio.NewReader(bytes.NewReader(data)),
		"one-byte": bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))),
		"size-64":  bufio.NewReaderSize(bytes.NewReader(data), 64),
		"size-16":  bufio.NewReaderSize(bytes.NewReader(data), 16),
	}
}

// TestWireFrameEveryCut: a 3-op batch frame cut at every byte boundary
// is ErrBatchTruncated (and still io.ErrUnexpectedEOF) whichever way
// the bytes are buffered; only the cut before the first byte is a clean
// io.EOF. The same sweep over a scalar frame keeps io.ReadFull's
// contract: io.ErrUnexpectedEOF inside the frame, never a truncated
// batch.
func TestWireFrameEveryCut(t *testing.T) {
	batch, _ := hex.DecodeString(goldenBatchHex)
	scalar, _ := hex.DecodeString(goldenOpHex)
	for cut := 0; cut < len(batch); cut++ {
		for name, br := range readerFlavours(batch[:cut]) {
			ops, isBatch, err := ReadWireFrame(br, nil)
			switch {
			case cut == 0:
				if err != io.EOF {
					t.Errorf("%s: empty stream: err = %v, want io.EOF", name, err)
				}
			case !isBatch || !errors.Is(err, ErrBatchTruncated) || !errors.Is(err, io.ErrUnexpectedEOF):
				t.Errorf("%s: cut %d: batch=%v err=%v, want a truncated batch", name, cut, isBatch, err)
			}
			if want := max(0, cut-wireBatchHeaderSize) / wireOpSize; err != nil && len(ops) != want {
				t.Errorf("%s: cut %d: %d whole ops decoded before the error, want %d", name, cut, len(ops), want)
			}
		}
	}
	for cut := 1; cut < len(scalar); cut++ {
		for name, br := range readerFlavours(scalar[:cut]) {
			_, isBatch, err := ReadWireFrame(br, nil)
			if isBatch || err != io.ErrUnexpectedEOF {
				t.Errorf("%s: scalar cut %d: batch=%v err=%v, want io.ErrUnexpectedEOF", name, cut, isBatch, err)
			}
		}
	}
}

// TestWireFrameStream: frames decode back to back out of one buffered
// stream — a batch, a scalar op, another batch — and the connection
// closing between frames is a clean io.EOF. A bad kind inside a batch
// is an error that is not a truncation and that consumes nothing past
// the frame: the frame behind it is still there to read.
func TestWireFrameStream(t *testing.T) {
	var stream bytes.Buffer
	WriteWireBatch(&stream, goldenBatch)
	WriteWireOp(&stream, goldenOp)
	WriteWireBatch(&stream, goldenBatch[1:])
	for name, br := range readerFlavours(stream.Bytes()) {
		var ops []WireOp
		for i, want := range [][]WireOp{goldenBatch, {goldenOp}, goldenBatch[1:]} {
			var isBatch bool
			var err error
			ops, isBatch, err = ReadWireFrame(br, ops)
			if err != nil || isBatch != (i != 1) {
				t.Fatalf("%s: frame %d: batch=%v err=%v", name, i, isBatch, err)
			}
			if len(ops) != len(want) {
				t.Fatalf("%s: frame %d: %d ops, want %d", name, i, len(ops), len(want))
			}
			for j := range want {
				if ops[j] != want[j] {
					t.Errorf("%s: frame %d op %d: %+v != %+v", name, i, j, ops[j], want[j])
				}
			}
		}
		if _, _, err := ReadWireFrame(br, ops); err != io.EOF {
			t.Errorf("%s: close between frames: err = %v, want io.EOF", name, err)
		}
	}

	bad, _ := hex.DecodeString(goldenBatchHex + goldenOpHex)
	bad[wireBatchHeaderSize+wireOpSize] = 99 // second op's kind byte
	for name, br := range readerFlavours(bad) {
		_, _, err := ReadWireFrame(br, nil)
		if err == nil || errors.Is(err, ErrBatchTruncated) || errors.Is(err, io.EOF) {
			t.Errorf("%s: bad kind mid-batch: err = %v", name, err)
		}
		rest, _ := io.ReadAll(br)
		if !bytes.HasSuffix(rest, bad[len(bad)-wireOpSize:]) || len(rest) < wireOpSize {
			t.Errorf("%s: bad kind mid-batch consumed past its frame: %d bytes left", name, len(rest))
		}
	}
}

// TestWireBigFrames: a batch frame far larger than either bufio buffer
// (MaxWireBatch ops are 209 KB against 4 KB buffers) encodes to the
// bytes the plain-writer path produces and decodes back whole, and its
// replies — 4096 frames back to back — read back in order.
func TestWireBigFrames(t *testing.T) {
	for _, n := range []int{1024, MaxWireBatch} {
		ops := make([]WireOp, n)
		for i := range ops {
			ops[i] = WireOp{Kind: byte(i%int(WirePing)) + 1, Rank: int32(i), Tag: int32(-i), Ctx: uint16(i),
				Handle: uint64(i) << 20, Seq: uint64(i) + 1}
		}
		var plain, buffered bytes.Buffer
		if err := WriteWireBatch(&plain, ops); err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(&buffered)
		if err := WriteWireBatch(bw, ops); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if !bytes.Equal(plain.Bytes(), buffered.Bytes()) {
			t.Fatalf("%d ops: buffered encoding differs from the plain one", n)
		}
		if want := wireBatchHeaderSize + n*wireOpSize; plain.Len() != want {
			t.Fatalf("%d ops: frame is %d bytes, want %d", n, plain.Len(), want)
		}
		for name, br := range readerFlavours(plain.Bytes()) {
			got, isBatch, err := ReadWireFrame(br, nil)
			if err != nil || !isBatch || len(got) != n {
				t.Fatalf("%s: %d ops: batch=%v len=%d err=%v", name, n, isBatch, len(got), err)
			}
			for i := range got {
				if got[i] != ops[i] {
					t.Fatalf("%s: op %d: %+v != %+v", name, i, got[i], ops[i])
				}
			}
		}

		buffered.Reset()
		for i := 0; i < n; i++ {
			if err := WriteWireReply(bw, WireReply{Kind: WireArrive, Handle: uint64(i), Cycles: uint64(i) * 7}); err != nil {
				t.Fatal(err)
			}
		}
		bw.Flush()
		for name, br := range readerFlavours(buffered.Bytes()) {
			for i := 0; i < n; i++ {
				rep, err := ReadWireReply(br)
				if err != nil || rep.Handle != uint64(i) || rep.Cycles != uint64(i)*7 {
					t.Fatalf("%s: reply %d: %+v, %v", name, i, rep, err)
				}
			}
			if _, err := ReadWireReply(br); err != io.EOF {
				t.Errorf("%s: after the last reply: err = %v, want io.EOF", name, err)
			}
		}
	}
}

// loopReader serves the same bytes over and over: an endless stream of
// whole frames for the decoders' allocation gates.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestWireCodecZeroAlloc: on a bufio.Writer / bufio.Reader every codec
// entry point encodes into, and decodes out of, the buffer that is
// already there — no heap allocation per frame, scalar or batch.
func TestWireCodecZeroAlloc(t *testing.T) {
	batch := make([]WireOp, 64)
	for i := range batch {
		batch[i] = WireOp{Kind: WirePost, Rank: int32(i % 8), Tag: int32(i), Ctx: 1, Handle: uint64(i)}
	}
	var opStream, batchStream, replyStream bytes.Buffer
	WriteWireOp(&opStream, goldenOp)
	WriteWireBatch(&batchStream, batch)
	WriteWireReply(&replyStream, goldenReply)

	bw := bufio.NewWriter(io.Discard)
	opReader := bufio.NewReader(&loopReader{data: opStream.Bytes()})
	frameReader := bufio.NewReader(&loopReader{data: batchStream.Bytes()})
	scalarFrameReader := bufio.NewReader(&loopReader{data: opStream.Bytes()})
	replyReader := bufio.NewReader(&loopReader{data: replyStream.Bytes()})
	ops := make([]WireOp, 0, len(batch))

	gates := []struct {
		name string
		fn   func() error
	}{
		{"WriteWireOp", func() error { return WriteWireOp(bw, goldenOp) }},
		{"WriteWireBatch", func() error { return WriteWireBatch(bw, batch) }},
		{"WriteWireReply", func() error { return WriteWireReply(bw, goldenReply) }},
		{"ReadWireOp", func() error { _, err := ReadWireOp(opReader); return err }},
		{"ReadWireReply", func() error { _, err := ReadWireReply(replyReader); return err }},
		{"ReadWireFrame/batch", func() (err error) { ops, _, err = ReadWireFrame(frameReader, ops); return }},
		{"ReadWireFrame/scalar", func() (err error) { ops, _, err = ReadWireFrame(scalarFrameReader, ops); return }},
	}
	for _, g := range gates {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := g.fn(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per call on a bufio buffer, want 0", g.name, allocs)
		}
	}
	if len(ops) != 1 || ops[0] != goldenOp {
		t.Errorf("the gated decoders lost their place in the stream: %+v", ops)
	}
}
