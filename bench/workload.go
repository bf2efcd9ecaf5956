package main

import (
	"hash/fnv"

	"spco/internal/mpi"
)

// The traffic every workload draws from: each pair's envelope is
// (rank in [0,ranks), tag in [0,tags)) on one communicator context.
// Backlog entries wear tags from backlogTag up, which the generator
// never draws, so a standing backlog is scanned but never matched.
const (
	ranks        = 8
	tags         = 4
	envelopes    = ranks * tags
	benchCtx     = 1
	backlogTag   = 1_000_000
	backlogDepth = 1024
	maxK         = 64
)

// workload is one traffic shape. A window is k first-half ops then the k
// counterparts in the same envelope order (MPI non-overtaking, in-order
// traffic), so every pair matches and search depth past the backlog is ~0.
type workload struct {
	name string
	why  string

	k         int  // pairs per window; 1 uses the scalar client calls
	postFirst bool // first half posts (arrives scan the PRQ); else arrives first (posts scan the UMQ)
	backlog   int  // standing never-matching entries in the queue the second half scans
	journal   bool // daemon journals every applied op

	// replayWindows is the fixed length of each layer replay, so the
	// replay's counts (cycles, allocations, bytes) repeat exactly.
	replayWindows int
}

var workloads = []workload{
	{
		name: "wire_scalar", k: 1, postFirst: true, replayWindows: 65536,
		why: "K=1 scalar calls on empty queues: two syscall round trips per pair, so the conn loop, flushes and goroutine hand-off own the time and the engine ~1%",
	},
	{
		name: "wire_batch64", k: 64, postFirst: true, replayWindows: 1024,
		why: "K=64 batch frames on empty queues: syscalls amortised, so the mpi codec, the daemon batch path and allocation dominate and engine work must not show",
	},
	{
		name: "deep_prq", k: 64, postFirst: true, backlog: backlogDepth, replayWindows: 128,
		why: "K=64 behind 1024 never-matching posted receives: every arrive scans the PRQ, so engine+matchlist+cache own ~97% and wire work is noise (the paper's long-queue regime)",
	},
	{
		name: "deep_umq", k: 64, postFirst: false, backlog: backlogDepth, replayWindows: 128,
		why: "K=64 arrive-first behind 1024 never-matching unexpected messages: every post scans the UMQ via SearchBy, so a PRQ-vs-UMQ trade shows as one deep workload up and one down",
	},
	{
		name: "journal_batch64", k: 64, postFirst: true, journal: true, replayWindows: 1024,
		why: "wire_batch64 with the op journal on tmpfs (sync every 64): the only workload where recov does work, so journal group-commit shows here and nowhere else",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// firstKind and secondKind are the wire op kinds of a window's halves.
func (w workload) firstKind() byte {
	if w.postFirst {
		return mpi.WirePost
	}
	return mpi.WireArrive
}

func (w workload) secondKind() byte {
	if w.postFirst {
		return mpi.WireArrive
	}
	return mpi.WirePost
}

// preload returns the standing backlog: first-half-kind ops that no
// generated counterpart matches. They sit ahead of every window's
// entries, so each second-half op scans all of them before its match.
func (w workload) preload() []mpi.WireOp {
	ops := make([]mpi.WireOp, w.backlog)
	for i := range ops {
		ops[i] = mpi.WireOp{Kind: w.firstKind(), Rank: int32(i % ranks), Tag: int32(backlogTag + i),
			Ctx: benchCtx, Handle: 1<<48 + uint64(i)}
	}
	return ops
}

// stream is the seeded op stream: the only input the system under test
// receives. The same seed yields the same ops, window after window.
type stream struct {
	w      workload
	rng    uint64 // splitmix64 state
	pairs  uint64 // pairs generated so far; handles derive from it
	first  []mpi.WireOp
	second []mpi.WireOp
}

func newStream(w workload, seed uint64) *stream {
	return &stream{w: w, rng: seed,
		first: make([]mpi.WireOp, w.k), second: make([]mpi.WireOp, w.k)}
}

// next draws the next window into s.first and s.second.
func (s *stream) next() {
	fk, sk := s.w.firstKind(), s.w.secondKind()
	for i := 0; i < s.w.k; i++ {
		s.rng += 0x9e3779b97f4a7c15
		z := s.rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		rank, tag := int32(z%ranks), int32((z>>8)%tags)
		s.pairs++
		s.first[i] = mpi.WireOp{Kind: fk, Rank: rank, Tag: tag, Ctx: benchCtx, Handle: 2 * s.pairs}
		s.second[i] = mpi.WireOp{Kind: sk, Rank: rank, Tag: tag, Ctx: benchCtx, Handle: 2*s.pairs + 1}
	}
}

// streamHash fingerprints the first n windows of a seeded stream, for
// the same-seed-same-inputs check.
func streamHash(w workload, seed uint64, n int) uint64 {
	h := fnv.New64a()
	s := newStream(w, seed)
	for i := 0; i < n; i++ {
		s.next()
		mpi.WriteWireBatch(h, s.first) // a hash write cannot fail
		mpi.WriteWireBatch(h, s.second)
	}
	return h.Sum64()
}

// fifo is a fixed ring of handles; a window never has more than maxK
// entries of one envelope outstanding.
type fifo struct {
	buf     [maxK]uint64
	head, n int
}

func (f *fifo) push(h uint64) { f.buf[(f.head+f.n)%maxK] = h; f.n++ }

func (f *fifo) pop() uint64 {
	h := f.buf[f.head]
	f.head = (f.head + 1) % maxK
	f.n--
	return h
}

// model is the benchmark's own definition of a correct reply: MPI
// matching over the generated envelopes is first-in-first-out per
// envelope (no wildcards are drawn), so an op matches the oldest
// waiting counterpart of its envelope or queues behind its own kind.
// The backlog never matches and is checked by count, not here.
type model struct {
	posted, unexpected [envelopes]fifo
}

// expect applies op and returns the outcome and matched handle a
// correct engine must report for it.
func (m *model) expect(op mpi.WireOp) (outcome byte, handle uint64) {
	env := int(op.Rank)*tags + int(op.Tag)
	if op.Kind == mpi.WirePost {
		if u := &m.unexpected[env]; u.n > 0 {
			return 1, u.pop() // posts report 1 for a UMQ match
		}
		m.posted[env].push(op.Handle)
		return 0, 0
	}
	if p := &m.posted[env]; p.n > 0 {
		return mpi.WireOutMatched, p.pop()
	}
	m.unexpected[env].push(op.Handle)
	return mpi.WireOutQueued, 0
}

// replyOK checks one wire reply against the model.
func (m *model) replyOK(op mpi.WireOp, rep mpi.WireReply) bool {
	outcome, handle := m.expect(op)
	return rep.Status == mpi.WireOK && rep.Kind == op.Kind && rep.Outcome == outcome && rep.Handle == handle
}
