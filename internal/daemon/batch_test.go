package daemon

import (
	"fmt"
	"testing"

	"spco/internal/mpi"
)

// mixedOpStream builds a deterministic interleaving of arrivals, posts,
// phases, pings, and stats — including traced ops, which must fall off
// the batch fast path onto the per-op path without changing replies.
func mixedOpStream(n int) []mpi.WireOp {
	ops := make([]mpi.WireOp, 0, n)
	req := uint64(1)
	for i := 0; len(ops) < n; i++ {
		switch i % 11 {
		case 3, 7:
			ops = append(ops, mpi.WireOp{
				Kind: mpi.WirePost, Rank: int32(i % 5), Tag: int32(i % 3),
				Ctx: 1, Handle: req,
			})
			req++
		case 5:
			ops = append(ops, mpi.WireOp{Kind: mpi.WirePhase, DurationNS: 1e4})
		case 9:
			ops = append(ops, mpi.WireOp{Kind: mpi.WirePing})
		case 10:
			ops = append(ops, mpi.WireOp{Kind: mpi.WireStat})
		default:
			op := mpi.WireOp{
				Kind: mpi.WireArrive, Rank: int32(i % 5), Tag: int32(i % 3),
				Ctx: 1, Handle: uint64(i) + 1000,
			}
			if i%13 == 0 {
				op.Trace = uint64(i) + 1 // traced: not batch-fast-path eligible
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// TestBatchRepliesMatchScalar drives the identical op stream through a
// batched connection on one daemon and a scalar connection on a second,
// identically configured daemon: every reply must agree.
func TestBatchRepliesMatchScalar(t *testing.T) {
	ops := mixedOpStream(600)

	run := func(batched bool) []mpi.WireReply {
		srv, _, errc := testServer(t, nil)
		defer stopAndWait(t, srv, errc)
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		out := make([]mpi.WireReply, 0, len(ops))
		if batched {
			const window = 37 // not a divisor of len(ops): trailing partial batch
			var reps []mpi.WireReply
			for i := 0; i < len(ops); i += window {
				j := i + window
				if j > len(ops) {
					j = len(ops)
				}
				reps, err = cl.DoBatch(ops[i:j], reps)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, reps...)
			}
		} else {
			for _, op := range ops {
				rep, err := cl.do(op)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rep)
			}
		}
		return out
	}

	scalar := run(false)
	batch := run(true)
	for i := range scalar {
		if scalar[i] != batch[i] {
			t.Fatalf("reply %d diverged (op %+v):\nscalar %+v\nbatch  %+v",
				i, ops[i], scalar[i], batch[i])
		}
	}
}

// TestServeLoadBatched runs the audited load generator in batched mode:
// the pairing audit must hold exactly, as in the scalar path.
func TestServeLoadBatched(t *testing.T) {
	srv, _, errc := testServer(t, nil)

	res, err := RunLoad(LoadConfig{
		Addr:       srv.Addr(),
		Conns:      3,
		Messages:   1800,
		PhaseEvery: 100,
		PhaseNS:    5e4,
		Batch:      64,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Unmatched != 0 || res.Mismatches != 0 {
		t.Fatalf("pairing audit failed: %d unmatched, %d mismatched", res.Unmatched, res.Mismatches)
	}
	if got := res.Matched(); got != 1800 {
		t.Fatalf("matched %d pairs, want 1800", got)
	}
	if res.Phases == 0 {
		t.Fatal("no compute phases driven")
	}

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	prq, umq, err := cl.QueueLens()
	if err != nil {
		t.Fatal(err)
	}
	if prq != 0 || umq != 0 {
		t.Fatalf("queues not drained after batched load: prq=%d umq=%d", prq, umq)
	}
	cl.Close()
	stopAndWait(t, srv, errc)
}

// servingConfig is the configuration the benchmark and `spco-daemon
// serve` run: pooled LLA-8 with the Collector and PMU attached (the
// testServer default attaches both).
func servingConfig(c *Config) {
	c.Engine.EntriesPerNode = 8
	c.Engine.Pool = true
}

// TestServingPathZeroAlloc drives matched windows through a real
// Client ↔ serveConn pair over loopback and counts heap allocations in
// the whole process — client and server side, codec, daemon and engine.
// Untraced traffic must cost none, in 64-pair batch frames and in
// scalar round trips alike: frames are encoded into and decoded out of
// the bufio buffers both ends already own, and no trace name or
// argument is built for an op nobody traces.
func TestServingPathZeroAlloc(t *testing.T) {
	srv, _, errc := testServer(t, servingConfig)
	defer stopAndWait(t, srv, errc)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const k = 64
	posts := make([]mpi.WireOp, k)
	arrives := make([]mpi.WireOp, k)
	for i := range posts {
		posts[i] = mpi.WireOp{Kind: mpi.WirePost, Rank: int32(i % 8), Tag: int32(i), Ctx: 1, Handle: uint64(i) + 1}
		arrives[i] = mpi.WireOp{Kind: mpi.WireArrive, Rank: int32(i % 8), Tag: int32(i), Ctx: 1, Handle: uint64(i) + 100}
	}
	reps := make([]mpi.WireReply, 0, k)
	var failed error
	batchWindow := func() {
		if reps, err = cl.DoBatch(posts, reps); err != nil {
			failed = err
			return
		}
		if reps, err = cl.DoBatch(arrives, reps); err != nil {
			failed = err
			return
		}
		for i := range reps {
			if reps[i].Outcome != mpi.WireOutMatched || reps[i].Handle != posts[i].Handle {
				failed = fmt.Errorf("arrive %d: reply %+v did not match its post", i, reps[i])
			}
		}
	}
	scalarWindow := func() {
		if _, err := cl.Post(1, 3, 1, 7); err != nil {
			failed = err
			return
		}
		rep, err := cl.Arrive(1, 3, 1, 9)
		if err != nil {
			failed = err
		} else if rep.Outcome != mpi.WireOutMatched || rep.Handle != 7 {
			failed = fmt.Errorf("scalar arrive: reply %+v did not match its post", rep)
		}
	}

	for _, w := range []struct {
		name   string
		window func()
	}{{"batch-64", batchWindow}, {"scalar", scalarWindow}} {
		for i := 0; i < 16 && failed == nil; i++ { // fill the node pools and the per-conn scratch
			w.window()
		}
		allocs := testing.AllocsPerRun(100, w.window)
		if failed != nil {
			t.Fatalf("%s: %v", w.name, failed)
		}
		if allocs != 0 {
			t.Errorf("%s window: %.0f heap allocations, want 0", w.name, allocs)
		}
	}
}

// TestBatchBigFrames round-trips batch frames many times the size of
// either end's bufio buffer — the benchmark's 1024-op preload (52 KB of
// ops, 30 KB of replies) and the largest frame the protocol allows —
// through DoBatch against a live server: one reply per op, in op order,
// all WireOK, with the connection still in frame sync afterwards.
func TestBatchBigFrames(t *testing.T) {
	srv, _, errc := testServer(t, servingConfig)
	defer stopAndWait(t, srv, errc)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var reps []mpi.WireReply
	queued := 0
	for _, n := range []int{1024, mpi.MaxWireBatch} {
		ops := make([]mpi.WireOp, n)
		for i := range ops {
			// Posts nothing will match, pings in between: the reply's
			// Kind tells which op it answers.
			ops[i] = mpi.WireOp{Kind: mpi.WirePost, Rank: int32(i % 8), Tag: int32(1<<20 + queued + i), Ctx: 1, Handle: uint64(i)}
			if i%5 == 4 {
				ops[i] = mpi.WireOp{Kind: mpi.WirePing}
			}
		}
		if reps, err = cl.DoBatch(ops, reps); err != nil {
			t.Fatalf("%d-op batch: %v", n, err)
		}
		if len(reps) != n {
			t.Fatalf("%d-op batch: %d replies", n, len(reps))
		}
		for i, rep := range reps {
			if rep.Status != mpi.WireOK || rep.Kind != ops[i].Kind || rep.Outcome != 0 {
				t.Fatalf("%d-op batch: reply %d = %+v for op %+v", n, i, rep, ops[i])
			}
		}
		queued += n - n/5
		prq, umq, err := cl.QueueLens()
		if err != nil {
			t.Fatal(err)
		}
		if prq != queued || umq != 0 {
			t.Fatalf("after the %d-op batch: prq=%d umq=%d, want %d/0", n, prq, umq, queued)
		}
	}
}
