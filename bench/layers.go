package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"spco/internal/engine"
	"spco/internal/match"
	"spco/internal/matchlist"
	"spco/internal/mpi"
	"spco/internal/recov"
	"spco/internal/simmem"
)

// The layer replay: the same seeded op stream driven straight into each
// layer's public API, w.replayWindows windows per replay. Every call is
// one span, bounded by shared clock reads (one read per call, ~40 ns
// here), which only matters for the K=1 replays and cancels in the
// attach costs. A layer's time is the floor of its calls' durations,
// the statistic the end-to-end latency uses, so the rungs and the
// end-to-end floor describe the same undisturbed host.

// floorNS returns the floor of a replay's per-call durations, divided
// by the ops one call carries.
func floorNS(calls []time.Duration, opsPerCall int) float64 {
	slices.Sort(calls)
	return float64(percentile(calls, floorPct)) / float64(opsPerCall)
}

// engineWarmWindows fills the node pools before an engine replay is
// timed, as BenchmarkHotPath does.
const engineWarmWindows = 8

// replaySpans is how many spans the layer replays of w record.
func replaySpans(w workload) int {
	n := 2 * w.replayWindows // frames (half-windows) per replay
	spans := 4*n + n         // four codec stages, one engine replay
	if w.journal {
		spans += n
	}
	return spans
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// codecReplay is the mpi codec alone, over an in-memory stream with the
// workload's frame shape: per-op nanoseconds and allocations of the
// four stages a pair crosses twice each.
type codecReplay struct {
	ns       [4]float64 // op encode, op decode, reply encode, reply decode
	allocs   [4]float64
	wireB    float64 // op + reply bytes per pair
	mismatch uint64  // decoded frames that differ from what was encoded
}

func (c codecReplay) nsPerPair() float64 { return 2 * (c.ns[0] + c.ns[1] + c.ns[2] + c.ns[3]) }

// clientAllocsPerPair is the codec's share of the allocations the
// closed-loop client makes: it encodes ops and decodes replies.
func (c codecReplay) clientAllocsPerPair() float64 { return 2 * (c.allocs[0] + c.allocs[3]) }

func replayCodec(w workload, seed uint64, rec *recorder) (codecReplay, error) {
	frames := 2 * w.replayWindows
	nOps := frames * w.k
	ops := make([]mpi.WireOp, 0, nOps)
	reps := make([]mpi.WireReply, 0, nOps)
	st, m := newStream(w, seed), model{}
	for i := 0; i < w.replayWindows; i++ {
		st.next()
		for _, half := range [2][]mpi.WireOp{st.first, st.second} {
			for _, op := range half {
				outcome, handle := m.expect(op)
				ops = append(ops, op)
				reps = append(reps, mpi.WireReply{Kind: op.Kind, Status: mpi.WireOK,
					Outcome: outcome, Handle: handle, Cycles: uint64(len(ops))})
			}
		}
	}

	var c codecReplay
	calls := make([]time.Duration, 0, frames)
	var opBuf, repBuf bytes.Buffer
	opBuf.Grow(nOps*mpi.WireOpSize + 8*frames)
	repBuf.Grow(nOps * 32)
	// stage runs one codec stage over every frame, one span per frame.
	stage := func(idx int, kind spanKind, frame func(f int) error) error {
		calls = calls[:0]
		m0 := mallocs()
		t := clock()
		for f := 0; f < frames; f++ {
			if err := frame(f); err != nil {
				return fmt.Errorf("%s replay, frame %d: %w", spanNames[kind], f, err)
			}
			t1 := clock()
			rec.add(kind, -1, uint32(f/2), t, t1)
			calls = append(calls, time.Duration(t1-t))
			t = t1
		}
		c.allocs[idx] = float64(mallocs()-m0) / float64(nOps)
		c.ns[idx] = floorNS(calls, w.k)
		return nil
	}

	// The client's write side: one frame, one flush.
	bw := bufio.NewWriter(&opBuf)
	err := stage(0, spOpEncode, func(f int) error {
		half := ops[f*w.k : (f+1)*w.k]
		var err error
		if w.k > 1 {
			err = mpi.WriteWireBatch(bw, half)
		} else {
			err = mpi.WriteWireOp(bw, half[0])
		}
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return c, err
	}
	// The server's read side.
	br := bufio.NewReader(bytes.NewReader(opBuf.Bytes()))
	var got []mpi.WireOp
	err = stage(1, spOpDecode, func(f int) error {
		var err error
		got, _, err = mpi.ReadWireFrame(br, got)
		for i := range got {
			if got[i] != ops[f*w.k+i] {
				c.mismatch++
			}
		}
		return err
	})
	if err != nil {
		return c, err
	}
	// The server's write side: k replies, then the flush.
	bw = bufio.NewWriter(&repBuf)
	err = stage(2, spReplyEncode, func(f int) error {
		for _, rep := range reps[f*w.k : (f+1)*w.k] {
			if err := mpi.WriteWireReply(bw, rep); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
	if err != nil {
		return c, err
	}
	// The client's read side.
	br = bufio.NewReader(bytes.NewReader(repBuf.Bytes()))
	err = stage(3, spReplyDecode, func(f int) error {
		for _, want := range reps[f*w.k : (f+1)*w.k] {
			rep, err := mpi.ReadWireReply(br)
			if err != nil {
				return err
			}
			if rep != want {
				c.mismatch++
			}
		}
		return nil
	})
	c.wireB = float64(opBuf.Len()+repBuf.Len()) / float64(nOps/2)
	return c, err
}

// engineReplay is a fresh engine driven through its batch APIs (the
// scalar calls for K=1).
type engineReplay struct {
	postNS, arriveNS float64 // floor per op
	pairs            uint64
	cycles           uint64
	mallocs          uint64
	mismatch         uint64
}

func (e engineReplay) nsPerPair() float64 { return e.postNS + e.arriveNS }

func replayEngine(ctx context.Context, w workload, seed uint64, cfg engine.Config, windows int, rec *recorder) engineReplay {
	en := engine.MustNew(cfg)
	for _, op := range w.preload() {
		if op.Kind == mpi.WirePost {
			en.PostRecv(int(op.Rank), int(op.Tag), op.Ctx, op.Handle)
		} else {
			en.ArriveFull(match.Envelope{Rank: op.Rank, Tag: op.Tag, Ctx: op.Ctx}, op.Handle)
		}
	}
	var (
		st    = newStream(w, seed)
		m     model
		posts = make([]engine.PostReq, w.k)
		envs  = make([]match.Envelope, w.k)
		msgs  = make([]uint64, w.k)
		pres  = make([]engine.PostResult, 0, w.k)
		ares  = make([]engine.ArriveResult, 0, w.k)
		r     engineReplay
	)
	post := func() {
		if w.k > 1 {
			pres = en.PostRecvBatch(posts, pres)
			return
		}
		msg, matched, cy := en.PostRecv(posts[0].Rank, posts[0].Tag, posts[0].Ctx, posts[0].Req)
		pres = append(pres[:0], engine.PostResult{Msg: msg, Matched: matched, Cycles: cy})
	}
	arrive := func() {
		if w.k > 1 {
			ares = en.ArriveBatch(envs, msgs, ares)
			return
		}
		req, outcome, cy := en.ArriveFull(envs[0], msgs[0])
		ares = append(ares[:0], engine.ArriveResult{Req: req, Outcome: outcome, Cycles: cy})
	}
	postOps, arriveOps := st.first, st.second
	first, second := post, arrive
	firstKind, secondKind := spEnginePost, spEngineArrive
	if !w.postFirst {
		postOps, arriveOps = arriveOps, postOps
		first, second = second, first
		firstKind, secondKind = secondKind, firstKind
	}
	firstCalls := make([]time.Duration, 0, windows)
	secondCalls := make([]time.Duration, 0, windows)
	var m0 uint64
	for win := -engineWarmWindows; win < windows && ctx.Err() == nil; win++ {
		if win == 0 {
			m0 = mallocs()
		}
		st.next()
		for i := range postOps {
			p, a := postOps[i], arriveOps[i]
			posts[i] = engine.PostReq{Rank: int(p.Rank), Tag: int(p.Tag), Ctx: p.Ctx, Req: p.Handle}
			envs[i] = match.Envelope{Rank: a.Rank, Tag: a.Tag, Ctx: a.Ctx}
			msgs[i] = a.Handle
		}
		t0 := clock()
		first()
		t1 := clock()
		second()
		t2 := clock()

		// Check against the model in the order the engine applied the ops.
		for _, half := range [2][]mpi.WireOp{st.first, st.second} {
			for i, op := range half {
				outcome, handle := m.expect(op)
				var gotOutcome byte
				var gotHandle uint64
				if op.Kind == mpi.WirePost {
					gotHandle = pres[i].Msg
					if pres[i].Matched {
						gotOutcome = 1
					}
				} else {
					gotOutcome, gotHandle = byte(ares[i].Outcome), ares[i].Req
				}
				if gotOutcome != outcome || gotHandle != handle {
					r.mismatch++
				}
			}
		}
		if win < 0 {
			continue
		}
		firstCalls = append(firstCalls, time.Duration(t1-t0))
		secondCalls = append(secondCalls, time.Duration(t2-t1))
		rec.add(firstKind, -1, uint32(win), t0, t1)
		rec.add(secondKind, -1, uint32(win), t1, t2)
		for i := range pres {
			r.cycles += pres[i].Cycles + ares[i].Cycles
		}
		r.pairs += uint64(w.k)
	}
	r.mallocs = mallocs() - m0
	if len(firstCalls) == 0 {
		return r // cancelled before the first timed window
	}
	r.postNS, r.arriveNS = floorNS(firstCalls, w.k), floorNS(secondCalls, w.k)
	if !w.postFirst {
		r.postNS, r.arriveNS = r.arriveNS, r.postNS
	}
	return r
}

// listReplay is the match structures alone: pooled LLA-8 lists behind a
// FreeAccessor, so the cost is the structure without the cache model.
type listReplay struct {
	appendNSPerOp    float64 // first half: a miss on the other list, then the append
	searchNSPerEntry float64 // second half: search time per slot inspected
	nsPerPair        float64
}

func replayMatchlist(w workload, seed uint64) listReplay {
	cfg := matchlist.Config{Space: simmem.NewSpace(), Acc: matchlist.FreeAccessor{}, EntriesPerNode: 8, Pool: true}
	prq := matchlist.NewPosted(matchlist.KindLLA, cfg)
	umq := matchlist.NewUnexpected(matchlist.KindLLA, cfg)
	post := func(op mpi.WireOp) (depth int, ok bool) {
		p := match.NewPosted(int(op.Rank), int(op.Tag), op.Ctx, op.Handle)
		_, depth, ok = umq.SearchBy(p)
		if !ok {
			prq.Post(p)
		}
		return depth, ok
	}
	arrive := func(op mpi.WireOp) (depth int, ok bool) {
		e := match.Envelope{Rank: op.Rank, Tag: op.Tag, Ctx: op.Ctx}
		_, depth, ok = prq.Search(e)
		if !ok {
			umq.Append(match.NewUnexpected(e, op.Handle))
		}
		return depth, ok
	}
	apply := post
	other := arrive
	if !w.postFirst {
		apply, other = arrive, post
	}
	for _, op := range w.preload() {
		apply(op)
	}
	st := newStream(w, seed)
	appends := make([]time.Duration, 0, w.replayWindows)
	searches := make([]time.Duration, 0, w.replayWindows)
	slots := 0
	for win := -engineWarmWindows; win < w.replayWindows; win++ {
		st.next()
		t0 := clock()
		for _, op := range st.first {
			apply(op)
		}
		t1 := clock()
		depth := 0
		for _, op := range st.second {
			d, _ := other(op)
			depth += d
		}
		t2 := clock()
		if win < 0 {
			continue
		}
		appends = append(appends, time.Duration(t1-t0))
		searches = append(searches, time.Duration(t2-t1))
		slots += max(depth, w.k) // an empty-queue search still touches the head
	}
	appendNS, searchNS := floorNS(appends, w.k), floorNS(searches, w.k)
	slotsPerOp := float64(slots) / float64(w.replayWindows*w.k)
	return listReplay{
		appendNSPerOp:    appendNS,
		searchNSPerEntry: searchNS / slotsPerOp,
		nsPerPair:        appendNS + searchNS,
	}
}

// journalReplay is the op journal alone, in a fresh directory on the
// same filesystem the daemon's journal used, at the daemon's cadence
// (one fsync per 64 records, i.e. per half-window).
type journalReplay struct {
	appendNSPerRecord float64 // amortised fsync included, as the daemon pays it
	syncP50US         float64
	bytesPerPair      float64
}

func replayJournal(w workload, seed uint64, rec *recorder) (r journalReplay, err error) {
	dir, _, err := newJournalDir()
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	jw, err := recov.OpenJournal(filepath.Join(dir, "replay.journal"), 1<<30)
	if err != nil {
		return r, err
	}
	defer jw.Close()
	st := newStream(w, seed)
	syncs := make([]time.Duration, 0, 2*w.replayWindows)
	calls := make([]time.Duration, 0, 2*w.replayWindows)
	for win := 0; win < w.replayWindows; win++ {
		st.next()
		for _, half := range [2][]mpi.WireOp{st.first, st.second} {
			t0 := clock()
			for _, op := range half {
				if err := jw.Append(recov.JournalRecord{Op: op}); err != nil {
					return r, err
				}
			}
			t1 := clock()
			if err := jw.Sync(); err != nil {
				return r, err
			}
			t2 := clock()
			rec.add(spRecovAppend, -1, uint32(win), t0, t1)
			syncs = append(syncs, time.Duration(t2-t1))
			calls = append(calls, time.Duration(t2-t0))
		}
	}
	slices.Sort(syncs)
	return journalReplay{
		appendNSPerRecord: floorNS(calls, w.k),
		syncP50US:         us(percentile(syncs, 50)),
		bytesPerPair:      float64(jw.Offset()) / float64(w.replayWindows*w.k),
	}, nil
}

// replayLayers runs every layer replay and fills the per-layer metrics,
// among them the ones that relate a layer's floor to the end-to-end one.
func replayLayers(ctx context.Context, w workload, seed uint64, rec *recorder, res *result) error {
	l := res.layers
	codec, err := replayCodec(w, seed, rec)
	if err != nil {
		return err
	}
	l["mpi.op_encode_ns_per_op"] = codec.ns[0]
	l["mpi.op_decode_ns_per_op"] = codec.ns[1]
	l["mpi.reply_encode_ns_per_op"] = codec.ns[2]
	l["mpi.reply_decode_ns_per_op"] = codec.ns[3]
	l["mpi.codec_allocs_per_op"] = (codec.allocs[0] + codec.allocs[1] + codec.allocs[2] + codec.allocs[3]) / 4
	l["mpi.wire_bytes_per_pair"] = codec.wireB

	// The cost-of-on rungs: the serving configuration (both instruments,
	// with spans), then bare, Collector only and PMU only.
	serving := replayEngine(ctx, w, seed, engineConfig(newCollector(), newPMU()), w.replayWindows, rec)
	bare := replayEngine(ctx, w, seed, engineConfig(nil, nil), w.replayWindows, nil)
	telOnly := replayEngine(ctx, w, seed, engineConfig(newCollector(), nil), w.replayWindows, nil)
	pmuOnly := replayEngine(ctx, w, seed, engineConfig(nil, newPMU()), w.replayWindows, nil)
	if err := ctx.Err(); err != nil {
		return err
	}
	pairs := float64(serving.pairs)
	l["engine.post_ns_per_op"] = serving.postNS
	l["engine.arrive_ns_per_op"] = serving.arriveNS
	l["engine.sim_cycles_per_pair"] = float64(serving.cycles) / pairs
	l["engine.allocs_per_pair"] = float64(serving.mallocs) / pairs
	l["engine.bare_ns_per_pair"] = bare.nsPerPair()
	l["telemetry.attach_ns_per_pair"] = telOnly.nsPerPair() - bare.nsPerPair()
	l["perf.attach_ns_per_pair"] = pmuOnly.nsPerPair() - bare.nsPerPair()

	list := replayMatchlist(w, seed)
	l["matchlist.search_ns_per_entry"] = list.searchNSPerEntry
	l["matchlist.append_ns_per_op"] = list.appendNSPerOp
	l["cache.model_ns_per_access"] = ratio(bare.nsPerPair()-list.nsPerPair, l["cache.accesses_per_pair"])

	// Layers that do no work on this workload read 0.
	var journal journalReplay
	if w.journal {
		if journal, err = replayJournal(w, seed, rec); err != nil {
			return err
		}
	}
	recovNSPerPair := 2 * journal.appendNSPerRecord
	l["recov.append_ns_per_record"] = journal.appendNSPerRecord
	l["recov.sync_us_p50"] = journal.syncP50US
	l["recov.journal_bytes_per_pair"] = journal.bytesPerPair

	e2eNSPerPair := res.e2e["window_lat_floor_us"] * 1e3 / float64(w.k)
	l["engine.apply_share_pct"] = 100 * serving.nsPerPair() / e2eNSPerPair
	l["recov.append_share_pct"] = 100 * recovNSPerPair / e2eNSPerPair
	l["daemon.residual_us_per_pair"] = (e2eNSPerPair - codec.nsPerPair() - serving.nsPerPair() - recovNSPerPair) / 1e3
	l["daemon.allocs_per_pair"] = res.e2e["allocs_per_pair"] - l["engine.allocs_per_pair"] - codec.clientAllocsPerPair()

	if n := codec.mismatch + serving.mismatch + bare.mismatch + telOnly.mismatch + pmuOnly.mismatch; n > 0 {
		res.fail(n, "%d layer-replay results differ from the model", n)
	}
	if a, b := l["engine.sim_cycles_per_pair"], res.e2e["sim_cycles_per_pair"]; a < b*0.999 || a > b*1.001 {
		res.fail(1, "engine replay models %.3f cycles/pair, the daemon reported %.3f (the daemon adds no modeled cycles)", a, b)
	}
	return nil
}
