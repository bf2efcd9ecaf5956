// Package recov is the crash-recovery codec layer for the serving
// daemon: an append-only journal of applied wire operations and a
// versioned snapshot of the daemon's logical matching state.
//
// The paper's semi-permanent occupancy argument is about long-running
// services; a service that loses every posted receive and unexpected
// message on a crash resets the experiment. The daemon therefore
// journals every engine-reaching operation before replying to it, and
// periodically snapshots the logical queue contents + counters so
// recovery replays only the journal tail. The engine itself is
// deterministic — the same op sequence rebuilds the same queues — so
// the journal, not the in-memory state, is the source of truth.
//
// Design constraints, in order:
//
//   - Torn tails are normal. A SIGKILL (or power cut) can land
//     mid-write; the journal reader stops at the first record whose
//     marker, CRC, or length does not check out and reports the clean
//     offset, and the writer truncates the torn tail before appending.
//   - Snapshots are atomic. They are written to a temp file, fsynced,
//     and renamed into place, so a crash mid-snapshot leaves the
//     previous snapshot (or none) — never a half-written one.
//   - The codec is a leaf. It depends only on internal/mpi (for the op
//     frame encoding it embeds) so it can be fuzzed and tested without
//     dragging in the engine.
package recov

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"spco/internal/mpi"
)

// Journal record layout (fixed 64 bytes):
//
//	marker  u8   journalMarker (0xA7)
//	session u64  owning session id (0: ephemeral connection)
//	op      51B  the wire op frame, verbatim (mpi.AppendWireOp)
//	crc     u32  IEEE CRC32 over marker..op
//
// The record is exactly one cache line, and fixed-size records make
// the torn-tail scan trivial: any remainder shorter than 64 bytes is a
// torn write, full stop.
const (
	journalMarker     byte = 0xA7
	JournalRecordSize      = 1 + 8 + mpi.WireOpSize + 4
)

// JournalRecord is one applied operation.
type JournalRecord struct {
	Session uint64
	Op      mpi.WireOp
}

// appendRecord appends rec's encoding to b; with JournalRecordSize
// spare capacity in b it allocates nothing.
func appendRecord(b []byte, rec JournalRecord) []byte {
	start := len(b)
	b = append(b, journalMarker)
	b = binary.BigEndian.AppendUint64(b, rec.Session)
	b = mpi.AppendWireOp(b, rec.Op)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	return b
}

// decodeRecord decodes one fixed-size record. A marker, CRC, or op
// mismatch reports an error — the reader treats it as the torn tail.
func decodeRecord(b []byte) (JournalRecord, error) {
	if len(b) < JournalRecordSize {
		return JournalRecord{}, io.ErrUnexpectedEOF
	}
	if b[0] != journalMarker {
		return JournalRecord{}, fmt.Errorf("recov: bad journal marker %#x", b[0])
	}
	want := binary.BigEndian.Uint32(b[JournalRecordSize-4 : JournalRecordSize])
	if got := crc32.ChecksumIEEE(b[:JournalRecordSize-4]); got != want {
		return JournalRecord{}, fmt.Errorf("recov: journal CRC mismatch (%#x != %#x)", got, want)
	}
	op, err := mpi.ParseWireOp(b[9 : 9+mpi.WireOpSize])
	if err != nil {
		return JournalRecord{}, err
	}
	return JournalRecord{Session: binary.BigEndian.Uint64(b[1:9]), Op: op}, nil
}

// JournalWriter appends records to an open journal file. Each Append
// issues one write(2) — nothing is buffered in the process, so a
// SIGKILL loses at most the record whose write was interrupted (the
// CRC catches the tear). Fsync runs every SyncEvery records; the sync
// cadence trades power-loss durability against write latency, exactly
// like a database WAL.
type JournalWriter struct {
	f         *os.File
	off       uint64
	syncEvery int
	unsynced  int
	buf       []byte
}

// OpenJournal opens (creating if needed) a journal for appending,
// first truncating any torn tail so new records extend the clean
// prefix. syncEvery <= 0 defaults to 64.
func OpenJournal(path string, syncEvery int) (*JournalWriter, error) {
	if syncEvery <= 0 {
		syncEvery = 64
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	_, cleanOff, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(int64(cleanOff)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(cleanOff), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &JournalWriter{f: f, off: cleanOff, syncEvery: syncEvery,
		buf: make([]byte, 0, JournalRecordSize)}, nil
}

// Append writes one record (one write syscall) and fsyncs on cadence.
func (w *JournalWriter) Append(rec JournalRecord) error {
	w.buf = appendRecord(w.buf[:0], rec)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.off += uint64(len(w.buf))
	w.unsynced++
	if w.unsynced >= w.syncEvery {
		return w.Sync()
	}
	return nil
}

// Offset reports the bytes written so far (the clean length).
func (w *JournalWriter) Offset() uint64 { return w.off }

// Sync flushes the file to stable storage.
func (w *JournalWriter) Sync() error {
	w.unsynced = 0
	return w.f.Sync()
}

// Close syncs and closes the journal.
func (w *JournalWriter) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReadJournal reads every valid record from path starting at byte
// offset from, returning the records and the clean offset (the byte
// position past the last valid record). A missing file is an empty
// journal. Corrupt or torn data past the clean prefix is reported via
// the offset, not an error — it is the expected shape of a crash.
func ReadJournal(path string, from uint64) ([]JournalRecord, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(int64(from), io.SeekStart); err != nil {
		return nil, from, err
	}
	recs, n, err := scanRecords(f)
	return recs, from + n, err
}

// scanJournal scans a whole open journal from the start.
func scanJournal(f *os.File) ([]JournalRecord, uint64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	return scanRecords(f)
}

// scanRecords reads records until EOF or the first invalid one,
// returning the records and the clean byte count consumed.
func scanRecords(r io.Reader) ([]JournalRecord, uint64, error) {
	var (
		recs []JournalRecord
		off  uint64
		b    [JournalRecordSize]byte
	)
	for {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			// EOF (clean end) and a short tail (torn write) both stop the
			// scan at the last whole record.
			return recs, off, nil
		}
		rec, err := decodeRecord(b[:])
		if err != nil {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += JournalRecordSize
	}
}

// Snapshot is the daemon's logical matching state at a point in time:
// per-shard queue contents, engine counters, and the journal offset
// replay resumes from, plus the session table (high-water marks and
// bounded reply rings) that keeps dedup exact across the restart.
type Snapshot struct {
	Shards   []ShardState
	Sessions []SessionState
}

// ShardState is one serving lane's snapshot.
type ShardState struct {
	// JournalOff is the shard journal's clean length when this state was
	// captured; recovery replays records from here.
	JournalOff uint64

	// Counters are the engine's Stats fields in declaration order (see
	// the daemon's statsToCounters); an opaque array keeps this package
	// a leaf.
	Counters [SnapshotCounters]uint64

	// PRQ and UMQ are the live queue entries in posting/arrival order.
	// PRQ entries keep the wire-level rank/tag (including wildcards), so
	// restoring is re-posting through the public engine API.
	PRQ []QueueEntry
	UMQ []QueueEntry
}

// SnapshotCounters fixes the counter array width (engine.Stats has 15
// integer fields; the daemon asserts the mapping in both directions).
const SnapshotCounters = 15

// QueueEntry is one logical queue element: the wire fields that
// recreate it through ArriveFull/PostRecv.
type QueueEntry struct {
	Rank   int32
	Tag    int32
	Ctx    uint16
	Handle uint64
}

// SessionState is one session's dedup state.
type SessionState struct {
	ID        uint64
	HighWater uint64
	Ring      []ReplyAt
}

// ReplyAt is one retained reply, keyed by its op's sequence number.
type ReplyAt struct {
	Seq   uint64
	Reply mpi.WireReply
}

// Snapshot file layout:
//
//	magic    "SPCOSNP1" (8)
//	shards   u32, then per shard:
//	   journalOff u64, counters 15×u64, prqN u32, prq entries,
//	   umqN u32, umq entries        (entry: rank i32, tag i32, ctx u16,
//	                                 handle u64 = 18 bytes)
//	sessions u32, then per session:
//	   id u64, hwm u64, ringN u32, ring entries (seq u64 + reply 29B)
//	crc      u32 (IEEE, over everything before it)
const snapshotMagic = "SPCOSNP1"

const queueEntrySize = 4 + 4 + 2 + 8

// maxSnapshotList bounds decoded list lengths so a corrupt count
// cannot force a huge allocation before the CRC check has a chance to
// reject the file.
const maxSnapshotList = 1 << 24

// EncodeSnapshot writes the snapshot to w.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	var b []byte
	b = append(b, snapshotMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Shards)))
	for i := range s.Shards {
		sh := &s.Shards[i]
		b = binary.BigEndian.AppendUint64(b, sh.JournalOff)
		for _, c := range sh.Counters {
			b = binary.BigEndian.AppendUint64(b, c)
		}
		b = appendEntries(b, sh.PRQ)
		b = appendEntries(b, sh.UMQ)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Sessions)))
	for i := range s.Sessions {
		ss := &s.Sessions[i]
		b = binary.BigEndian.AppendUint64(b, ss.ID)
		b = binary.BigEndian.AppendUint64(b, ss.HighWater)
		b = binary.BigEndian.AppendUint32(b, uint32(len(ss.Ring)))
		for _, ra := range ss.Ring {
			b = binary.BigEndian.AppendUint64(b, ra.Seq)
			b = mpi.AppendWireReply(b, ra.Reply)
		}
	}
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

func appendEntries(b []byte, list []QueueEntry) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(list)))
	for _, e := range list {
		b = binary.BigEndian.AppendUint32(b, uint32(e.Rank))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Tag))
		b = binary.BigEndian.AppendUint16(b, e.Ctx)
		b = binary.BigEndian.AppendUint64(b, e.Handle)
	}
	return b
}

// DecodeSnapshot reads and validates a snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(io.LimitReader(r, 1<<30))
	if err != nil {
		return nil, err
	}
	if len(b) < len(snapshotMagic)+4+4 {
		return nil, fmt.Errorf("recov: snapshot too short (%d bytes)", len(b))
	}
	if string(b[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("recov: bad snapshot magic %q", b[:len(snapshotMagic)])
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("recov: snapshot CRC mismatch (%#x != %#x)", got, want)
	}
	d := &decoder{b: body[len(snapshotMagic):]}
	s := &Snapshot{}
	nShards := d.u32()
	if nShards > 1<<16 {
		return nil, fmt.Errorf("recov: snapshot shard count %d", nShards)
	}
	for i := uint32(0); i < nShards && d.err == nil; i++ {
		var sh ShardState
		sh.JournalOff = d.u64()
		for j := range sh.Counters {
			sh.Counters[j] = d.u64()
		}
		sh.PRQ = d.entries()
		sh.UMQ = d.entries()
		s.Shards = append(s.Shards, sh)
	}
	nSess := d.u32()
	if d.err == nil && nSess > maxSnapshotList {
		return nil, fmt.Errorf("recov: snapshot session count %d", nSess)
	}
	for i := uint32(0); i < nSess && d.err == nil; i++ {
		var ss SessionState
		ss.ID = d.u64()
		ss.HighWater = d.u64()
		ringN := d.u32()
		if d.err == nil && ringN > maxSnapshotList {
			return nil, fmt.Errorf("recov: snapshot ring count %d", ringN)
		}
		for j := uint32(0); j < ringN && d.err == nil; j++ {
			seq := d.u64()
			rep, err := mpi.ParseWireReply(d.take(mpi.WireReplySize))
			if err != nil && d.err == nil {
				d.err = err
			}
			ss.Ring = append(ss.Ring, ReplyAt{Seq: seq, Reply: rep})
		}
		s.Sessions = append(s.Sessions, ss)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("recov: %d trailing snapshot bytes", len(d.b))
	}
	return s, nil
}

// decoder is a cursor over the snapshot body with sticky errors.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) entries() []QueueEntry {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxSnapshotList {
		d.err = fmt.Errorf("recov: snapshot entry count %d", n)
		return nil
	}
	out := make([]QueueEntry, 0, min(int(n), 4096))
	for i := uint32(0); i < n; i++ {
		b := d.take(queueEntrySize)
		if b == nil {
			return nil
		}
		out = append(out, QueueEntry{
			Rank:   int32(binary.BigEndian.Uint32(b[0:4])),
			Tag:    int32(binary.BigEndian.Uint32(b[4:8])),
			Ctx:    binary.BigEndian.Uint16(b[8:10]),
			Handle: binary.BigEndian.Uint64(b[10:18]),
		})
	}
	return out
}

// WriteSnapshotFile atomically replaces path with the encoded
// snapshot: temp file in the same directory, fsync, rename, fsync the
// directory. A crash at any point leaves either the old snapshot or
// the new one, never a torn hybrid.
func WriteSnapshotFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := EncodeSnapshot(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadSnapshotFile loads a snapshot; a missing file returns (nil, nil)
// — recovery then replays the whole journal.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f)
}
