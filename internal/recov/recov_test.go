package recov

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"spco/internal/mpi"
)

func sampleOps(n int) []JournalRecord {
	recs := make([]JournalRecord, n)
	for i := range recs {
		recs[i] = JournalRecord{
			Session: uint64(i % 3),
			Op: mpi.WireOp{Kind: mpi.WireArrive, Rank: int32(i), Tag: int32(i * 7),
				Ctx: uint16(i % 5), Handle: uint64(1000 + i), Seq: uint64(i + 1)},
		}
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-000.journal")
	w, err := OpenJournal(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleOps(10)
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Offset(); got != uint64(10*JournalRecordSize) {
		t.Fatalf("Offset = %d, want %d", got, 10*JournalRecordSize)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, off, err := ReadJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off != uint64(10*JournalRecordSize) {
		t.Fatalf("clean offset = %d, want %d", off, 10*JournalRecordSize)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Reading from a mid-journal offset skips the prefix.
	tail, off2, err := ReadJournal(path, uint64(7*JournalRecordSize))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || off2 != off {
		t.Fatalf("tail read: %d records to %d, want 3 to %d", len(tail), off2, off)
	}
	if tail[0] != want[7] {
		t.Errorf("tail[0] = %+v, want %+v", tail[0], want[7])
	}
}

// TestJournalTornTail: a journal whose last record was cut mid-write
// (the SIGKILL shape) must read back its clean prefix, and reopening
// for append must truncate the tear so the next record extends the
// clean prefix.
// TestJournalRecordGolden pins the 64-byte record — marker, session,
// the embedded op frame, CRC — to the bytes written before the record
// codec called the wire codec core directly.
func TestJournalRecordGolden(t *testing.T) {
	rec := JournalRecord{Session: 0x0807060504030201, Op: mpi.WireOp{Kind: mpi.WirePost, Rank: -1, Tag: 77,
		Ctx: 9, Handle: 0xabcdef, DurationNS: 2.5, Trace: 5, Span: 6, Seq: 1 << 40}}
	const want = "a7080706050403020102ffffffff0000004d00090000000000abcdef4004000000000000" +
		"000000000000000500000000000000060000010000000000b71625e3"
	enc := appendRecord(nil, rec)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("record encoding moved:\n got  %s\n want %s", got, want)
	}
	if got, err := decodeRecord(enc); err != nil || got != rec {
		t.Fatalf("decodeRecord: %+v, %v", got, err)
	}
}

// TestJournalAppendZeroAlloc: a record is encoded into the writer's own
// buffer and handed to write(2) — nothing per Append reaches the heap.
func TestJournalAppendZeroAlloc(t *testing.T) {
	w, err := OpenJournal(filepath.Join(t.TempDir(), "shard-000.journal"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := sampleOps(1)[0]
	allocs := testing.AllocsPerRun(256, func() {
		if e := w.Append(rec); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("JournalWriter.Append: %.2f allocs per record, want 0", allocs)
	}
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleOps(5)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tear := range []int{1, JournalRecordSize / 2, JournalRecordSize - 1} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := append(append([]byte{}, b...), b[:tear]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		got, off, err := ReadJournal(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || off != uint64(5*JournalRecordSize) {
			t.Fatalf("tear %d: read %d records to %d, want 5 to %d",
				tear, len(got), off, 5*JournalRecordSize)
		}
		// Reopen + append: the torn bytes must be gone.
		w, err := OpenJournal(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Offset() != uint64(5*JournalRecordSize) {
			t.Fatalf("tear %d: reopened at %d", tear, w.Offset())
		}
		extra := JournalRecord{Session: 9, Op: mpi.WireOp{Kind: mpi.WirePing}}
		if err := w.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err = ReadJournal(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 || got[5] != extra {
			t.Fatalf("tear %d: after repair-append got %d records (last %+v)",
				tear, len(got), got[len(got)-1])
		}
		// Restore the clean 5-record file for the next tear shape.
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCorruptMidRecord: a bit flipped inside an earlier record
// stops the scan there — the journal's trust ends at the first bad CRC.
func TestJournalCorruptMidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleOps(5) {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[2*JournalRecordSize+10] ^= 0xFF
	os.WriteFile(path, b, 0o644)
	got, off, err := ReadJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || off != uint64(2*JournalRecordSize) {
		t.Fatalf("read %d records to %d, want 2 to %d", len(got), off, 2*JournalRecordSize)
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	recs, off, err := ReadJournal(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil || recs != nil || off != 0 {
		t.Fatalf("missing journal: %v %v %d, want nil nil 0", recs, err, off)
	}
}

func sampleSnapshot() *Snapshot {
	s := &Snapshot{}
	for i := 0; i < 3; i++ {
		sh := ShardState{JournalOff: uint64(i * 640)}
		for j := range sh.Counters {
			sh.Counters[j] = uint64(i*100 + j)
		}
		for j := 0; j < i*2; j++ {
			sh.PRQ = append(sh.PRQ, QueueEntry{Rank: -1, Tag: int32(j), Ctx: uint16(i), Handle: uint64(j)})
			sh.UMQ = append(sh.UMQ, QueueEntry{Rank: int32(j), Tag: -2, Ctx: uint16(i), Handle: uint64(j + 50)})
		}
		s.Shards = append(s.Shards, sh)
	}
	s.Sessions = []SessionState{
		{ID: 7, HighWater: 99, Ring: []ReplyAt{
			{Seq: 98, Reply: mpi.WireReply{Kind: mpi.WireArrive, Status: mpi.WireOK, Outcome: 1, Handle: 4, Cycles: 12}},
			{Seq: 99, Reply: mpi.WireReply{Kind: mpi.WirePost, Status: mpi.WireOK}},
		}},
		{ID: 8, HighWater: 0},
	}
	return s
}

func snapEqual(a, b *Snapshot) bool {
	if len(a.Shards) != len(b.Shards) || len(a.Sessions) != len(b.Sessions) {
		return false
	}
	for i := range a.Shards {
		x, y := &a.Shards[i], &b.Shards[i]
		if x.JournalOff != y.JournalOff || x.Counters != y.Counters ||
			len(x.PRQ) != len(y.PRQ) || len(x.UMQ) != len(y.UMQ) {
			return false
		}
		for j := range x.PRQ {
			if x.PRQ[j] != y.PRQ[j] {
				return false
			}
		}
		for j := range x.UMQ {
			if x.UMQ[j] != y.UMQ[j] {
				return false
			}
		}
	}
	for i := range a.Sessions {
		x, y := &a.Sessions[i], &b.Sessions[i]
		if x.ID != y.ID || x.HighWater != y.HighWater || len(x.Ring) != len(y.Ring) {
			return false
		}
		for j := range x.Ring {
			if x.Ring[j] != y.Ring[j] {
				return false
			}
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !snapEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for _, bit := range []int{0, 9, len(clean) / 2, len(clean) - 1} {
		b := append([]byte{}, clean...)
		b[bit] ^= 0x40
		if _, err := DecodeSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("accepted snapshot with byte %d flipped", bit)
		}
	}
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(clean); n += 7 {
		if _, err := DecodeSnapshot(bytes.NewReader(clean[:n])); err == nil {
			t.Errorf("accepted %d-byte truncation", n)
		}
	}
	// Trailing garbage is rejected too (the CRC covers it).
	if _, err := DecodeSnapshot(bytes.NewReader(append(append([]byte{}, clean...), 0))); err == nil {
		t.Error("accepted trailing byte")
	}
}

func TestSnapshotFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.spco")
	if s, err := ReadSnapshotFile(path); err != nil || s != nil {
		t.Fatalf("missing snapshot: %v %v, want nil nil", s, err)
	}
	want := sampleSnapshot()
	if err := WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot; the file must be wholly the new
	// one and no temp litter may remain.
	want.Shards[0].JournalOff = 1 << 30
	if err := WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snapEqual(got, want) {
		t.Fatal("reread snapshot differs from last write")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("snapshot dir has %d entries, want 1 (temp litter?)", len(ents))
	}
}

// FuzzDecodeSnapshot: arbitrary bytes must never panic the decoder,
// and any accepted snapshot must re-encode byte-identically (the codec
// is canonical).
func FuzzDecodeSnapshot(f *testing.F) {
	var buf bytes.Buffer
	EncodeSnapshot(&buf, sampleSnapshot())
	f.Add(buf.Bytes())
	buf.Reset()
	EncodeSnapshot(&buf, &Snapshot{})
	f.Add(buf.Bytes())
	f.Add([]byte(snapshotMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(bytes.NewReader(b))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeSnapshot(&out, s); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), b) {
			t.Fatalf("accepted snapshot is not canonical: %d in, %d out", len(b), out.Len())
		}
	})
}

// FuzzJournalScan: arbitrary journal bytes must scan without panicking
// and every record reported must sit inside the clean offset.
func FuzzJournalScan(f *testing.F) {
	var b []byte
	for _, rec := range sampleOps(3) {
		b = appendRecord(b, rec)
	}
	f.Add(b)
	f.Add(b[:len(b)-5])
	f.Add([]byte{journalMarker})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, off, err := scanRecords(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("scanRecords errored: %v", err)
		}
		if off > uint64(len(b)) {
			t.Fatalf("clean offset %d past input length %d", off, len(b))
		}
		if off != uint64(len(recs)*JournalRecordSize) {
			t.Fatalf("offset %d does not cover %d records", off, len(recs))
		}
	})
}
