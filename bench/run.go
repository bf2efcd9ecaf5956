package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"spco/internal/cache"
	"spco/internal/daemon"
	"spco/internal/engine"
	"spco/internal/matchlist"
	"spco/internal/mpi"
	"spco/internal/perf"
	"spco/internal/recov"
	"spco/internal/telemetry"
)

// durations are a run's time boxes. The warm-up is a fixed box, so
// setup_s = boot + preload + box repeats while work moved into boot or
// preload still adds to it one for one.
type durations struct {
	warm      time.Duration
	timed     time.Duration // a traced run has two such phases: spans off, spans on
	replayDiv int           // layer replays run replayWindows/replayDiv windows
}

// runDurations are the boxes of a run asked to measure for seconds. A
// traced run spends 8/21 of that on each of its two timed phases and
// the rest on the layer replays, so it ends when an untraced run would.
// quick is the smoke setting; its numbers are not comparable.
func runDurations(seconds float64, traced, quick bool) durations {
	d := durations{warm: 3 * time.Second, timed: time.Duration(seconds * float64(time.Second)), replayDiv: 1}
	if quick {
		d = durations{warm: 200 * time.Millisecond, timed: time.Second, replayDiv: 8}
	}
	if traced {
		d.timed = d.timed * 8 / 21
	}
	return d
}

const pingsRTT = 2000

// floorPct is the percentile reported as the window-latency floor: the
// time 1 window in 1000 beats. Every window of a workload does the same
// work and host interference only ever adds time, so the floor is the
// cost on an undisturbed host; it repeated to 1-3% where the median
// moved 10-30%.
const floorPct = 0.1

// engineConfig is the serving configuration of `spco-daemon serve` and
// BenchmarkHotPath: pooled LLA-8 on the SandyBridge profile.
func engineConfig(tel *telemetry.Collector, pmu *perf.PMU) engine.Config {
	return engine.Config{
		Profile:        cache.SandyBridge,
		Kind:           matchlist.KindLLA,
		EntriesPerNode: 8,
		Pool:           true,
		Telemetry:      tel,
		Perf:           pmu,
	}
}

func newCollector() *telemetry.Collector {
	return telemetry.NewCollector(telemetry.Labels{"exp": "bench"})
}

func newPMU() *perf.PMU {
	return perf.New(perf.Options{Label: "bench", SampleInterval: perf.DefaultSampleInterval})
}

// sut is the system under test: one in-process daemon and the single
// closed-loop connection that loads it over loopback TCP.
type sut struct {
	srv  *daemon.Server
	cl   *daemon.Client
	errc chan error

	stopOnce sync.Once
	stopErr  error
}

func boot(journalDir string) (*sut, error) {
	srv, err := daemon.New(daemon.Config{
		Engine:     engineConfig(nil, nil),
		Shards:     1,
		Collector:  newCollector(),
		PMU:        newPMU(),
		PerfOut:    io.Discard,
		JournalDir: journalDir,
	})
	if err != nil {
		return nil, err
	}
	s := &sut{srv: srv, errc: make(chan error, 1)}
	go func() { s.errc <- srv.Run(nil) }()
	if s.cl, err = daemon.Dial(srv.Addr()); err == nil {
		err = s.cl.Ping()
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the connection, drains the daemon and waits for Run; a
// second call returns the first one's result.
func (s *sut) stop() error {
	s.stopOnce.Do(func() {
		if s.cl != nil {
			s.cl.Close()
		}
		s.srv.Stop()
		s.stopErr = <-s.errc
	})
	return s.stopErr
}

// newJournalDir makes a fresh journal directory, on tmpfs when
// /dev/shm is writable: a disk journal is fsync-bound and did not
// repeat (±20%), so it is used only as a fallback, inside the working
// directory, and named in the output. The caller removes it.
func newJournalDir() (dir, fs string, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "spco-bench-journal-"); err != nil {
		if dir, err = os.MkdirTemp(".", ".bench-journal-"); err != nil {
			return "", "", err
		}
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return "", "", err
	}
	return dir, fsType(dir), nil
}

// fsType names the filesystem holding dir, from /proc/mounts.
func fsType(dir string) string {
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// snapshot is every cumulative counter a phase is a delta of.
type snapshot struct {
	cpu     time.Duration
	ctxsw   int64
	rssKB   int64
	mallocs uint64
	numGC   uint32
	eng     engine.Stats
	cache   cache.Stats
	pool    matchlist.PoolStats
}

// takeSnapshot reads the counters. The engine is read while the closed
// loop is idle: the one server goroutine is blocked reading the socket.
func takeSnapshot(en *engine.Engine) snapshot {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw:   ru.Nvcsw + ru.Nivcsw,
		rssKB:   ru.Maxrss,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		eng:     en.Stats(),
		cache:   en.Hierarchy().Stats(),
		pool:    en.PoolStats(),
	}
}

// phase is one time-boxed stretch of windows and the counter deltas
// around it.
type phase struct {
	wall                   time.Duration
	windows, pairs, failed uint64
	cycles                 uint64
	lats                   []time.Duration // sorted
	before, after          snapshot
}

// pct is the q-th percentile window latency in µs.
func (p *phase) pct(q float64) float64 { return us(percentile(p.lats, q)) }

// percentile returns the q-th percentile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q/100*float64(len(sorted)-1))]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// perPair divides by the phase's pairs.
func (p *phase) perPair(v float64) float64 { return v / float64(p.pairs) }

// driver sends windows down the one connection and checks every reply.
type driver struct {
	w     workload
	cl    *daemon.Client
	en    *engine.Engine
	st    *stream
	m     model
	reps1 []mpi.WireReply
	reps2 []mpi.WireReply

	// Totals since boot: pairs sent, pairs failed, modeled cycles.
	windows, pairs, failed, cycles uint64
	firstErr                       error
}

// frame is one half-window round trip: a batch frame, or for K=1 the
// scalar client call.
func (d *driver) frame(ops []mpi.WireOp, reps []mpi.WireReply) ([]mpi.WireReply, error) {
	if d.w.k > 1 {
		return d.cl.DoBatch(ops, reps)
	}
	op := ops[0]
	var rep mpi.WireReply
	var err error
	if op.Kind == mpi.WirePost {
		rep, err = d.cl.Post(op.Rank, op.Tag, op.Ctx, op.Handle)
	} else {
		rep, err = d.cl.Arrive(op.Rank, op.Tag, op.Ctx, op.Handle)
	}
	return append(reps[:0], rep), err
}

// window runs one window and returns its start and end. A transport
// error fails every pair of the window and is kept in d.firstErr. With
// a recorder the window's three children are recorded too.
func (d *driver) window(rec *recorder) (t0, t3 int64) {
	d.st.next()
	k := uint64(d.w.k)
	var t1, t2 int64
	var err error
	t0 = clock()
	if d.reps1, err = d.frame(d.st.first, d.reps1); err == nil {
		if rec != nil {
			t1 = clock()
		}
		d.reps2, err = d.frame(d.st.second, d.reps2)
	}
	if err != nil || len(d.reps1) != d.w.k || len(d.reps2) != d.w.k {
		if d.firstErr == nil {
			d.firstErr = fmt.Errorf("window %d: %d/%d replies: %v", d.windows, len(d.reps1), len(d.reps2), err)
		}
		d.windows++
		d.pairs += k
		d.failed += k
		return t0, clock()
	}
	if rec != nil {
		t2 = clock()
	}
	var bad [maxK]bool
	for i, op := range d.st.first {
		bad[i] = !d.m.replyOK(op, d.reps1[i])
		d.cycles += d.reps1[i].Cycles
	}
	for i, op := range d.st.second {
		if !d.m.replyOK(op, d.reps2[i]) || bad[i] {
			d.failed++
		}
		d.cycles += d.reps2[i].Cycles
	}
	d.pairs += k
	t3 = clock()
	if rec != nil {
		id := uint32(d.windows)
		win := rec.add(spWindow, -1, id, t0, t3)
		rec.add(spFirstFrame, win, id, t0, t1)
		rec.add(spSecondFrame, win, id, t1, t2)
		rec.add(spVerify, win, id, t2, t3)
	}
	d.windows++
	return t0, t3
}

// run drives windows for dur (or until the context is cancelled or the
// transport fails) and returns the phase. sizeHint pre-sizes the
// latency slice so the timed loop does not grow it.
func (d *driver) run(ctx context.Context, dur time.Duration, sizeHint int, rec *recorder) phase {
	p := phase{lats: make([]time.Duration, 0, sizeHint), before: takeSnapshot(d.en)}
	w0, pr0, f0, cy0 := d.windows, d.pairs, d.failed, d.cycles
	start := clock()
	end := start
	for end-start < int64(dur) && d.firstErr == nil && ctx.Err() == nil {
		var t0 int64
		t0, end = d.window(rec)
		p.lats = append(p.lats, time.Duration(end-t0))
	}
	p.wall = time.Duration(end - start)
	p.after = takeSnapshot(d.en)
	p.windows, p.pairs, p.failed, p.cycles = d.windows-w0, d.pairs-pr0, d.failed-f0, d.cycles-cy0
	slices.Sort(p.lats)
	return p
}

// result is one workload run: the counts the contract asks for, the
// end-to-end metrics, and whatever per-layer metrics the run measured
// (all of them on a traced run).
type result struct {
	workload  string
	attempted uint64
	failed    uint64
	problems  []string
	samples   int // windows in the timed phase
	dur       durations
	journalFS string
	e2e       map[string]float64
	layers    map[string]float64
}

func (r *result) fail(n uint64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runWorkload is one run: boot, preload, time-boxed warm-up, GC, timed
// phase, verification; a traced run then repeats the timed phase with
// spans on and replays the op stream into each layer.
func runWorkload(ctx context.Context, w workload, seed uint64, dur durations, traced bool, traceOut string) (res result, err error) {
	start := time.Now()
	res = result{workload: w.name, dur: dur, e2e: map[string]float64{}, layers: map[string]float64{}, journalFS: "none"}
	w.replayWindows /= dur.replayDiv

	var journalDir string
	if w.journal {
		if journalDir, res.journalFS, err = newJournalDir(); err != nil {
			return res, err
		}
		defer os.RemoveAll(journalDir)
	}
	bootStart := time.Now()
	s, err := boot(journalDir)
	if err != nil {
		return res, err
	}
	defer s.stop()
	bootMS := msSince(bootStart)

	d := &driver{w: w, cl: s.cl, en: s.srv.Engine(), st: newStream(w, seed)}
	preloadStart := time.Now()
	if pre := w.preload(); len(pre) > 0 {
		reps, err := s.cl.DoBatch(pre, nil)
		if err != nil {
			return res, fmt.Errorf("preload: %w", err)
		}
		for _, rep := range reps {
			if rep.Status != mpi.WireOK || rep.Handle != 0 {
				res.fail(1, "preload op answered status %d handle %d", rep.Status, rep.Handle)
			}
		}
	}
	preloadMS := msSince(preloadStart)

	warm := d.run(ctx, dur.warm, 1<<16, nil)
	runtime.GC()
	setup := time.Since(start)

	hint := int(float64(warm.windows)*float64(dur.timed)/float64(dur.warm)*1.5) + 1024
	p := d.run(ctx, dur.timed, hint, nil)
	if p.pairs == 0 {
		return res, fmt.Errorf("no window completed: %v", d.firstErr)
	}
	res.samples = len(p.lats)

	res.e2e["setup_s"] = setup.Seconds()
	res.e2e["window_lat_floor_us"] = p.pct(floorPct)
	res.e2e["allocs_per_pair"] = p.perPair(float64(p.after.mallocs - p.before.mallocs))
	res.e2e["sim_cycles_per_pair"] = p.perPair(float64(p.cycles))

	// Whole-run host-time numbers: reported, not gated (see README,
	// "Noise"): on a contended host they moved 10-30% between runs.
	l := res.layers
	l["bench.window_lat_p50_us"] = p.pct(50)
	l["bench.pairs_per_sec"] = float64(p.pairs-p.failed) / p.wall.Seconds()
	l["bench.cpu_us_per_pair"] = p.perPair(float64(p.after.cpu-p.before.cpu) / 1e3)
	l["daemon.boot_ms"] = bootMS
	l["daemon.ctxsw_per_window"] = float64(p.after.ctxsw-p.before.ctxsw) / float64(p.windows)
	l["bench.window_lat_p90_us"] = p.pct(90)
	l["bench.window_lat_p99_us"] = p.pct(99)
	l["bench.windows"] = float64(p.windows)
	l["bench.preload_ms"] = preloadMS
	l["bench.gc_cycles_per_s"] = float64(p.after.numGC-p.before.numGC) / p.wall.Seconds()
	l["bench.rss_peak_mb"] = float64(p.after.rssKB) / 1024
	eng, cs, pool := p.after.eng, p.after.cache.Sub(p.before.cache), p.after.pool
	l["engine.search_depth_mean"] = p.perPair(float64(eng.PRQDepthTotal + eng.UMQDepthTotal - p.before.eng.PRQDepthTotal - p.before.eng.UMQDepthTotal))
	l["matchlist.pool_miss_ratio"] = ratio(float64(pool.Misses-p.before.pool.Misses), float64(pool.Gets-p.before.pool.Gets))
	l["cache.accesses_per_pair"] = p.perPair(float64(cs.Accesses))
	l["cache.l1_hit_ratio"] = ratio(float64(cs.L1Hits), float64(cs.Accesses))
	l["cache.dram_loads_per_pair"] = p.perPair(float64(cs.DRAMLoads))
	l["cache.pref_hit_ratio"] = ratio(float64(cs.PrefHits), float64(cs.Accesses))

	var rec *recorder
	if traced {
		rtts := make([]time.Duration, pingsRTT)
		for i := range rtts {
			t0 := clock()
			if err := s.cl.Ping(); err != nil {
				return res, fmt.Errorf("ping: %w", err)
			}
			rtts[i] = time.Duration(clock() - t0)
		}
		slices.Sort(rtts)
		l["daemon.ping_rtt_p50_us"] = us(percentile(rtts, 50))

		rec = &recorder{spans: make([]span, 0, 4*hint+replaySpans(w))}
		tp := d.run(ctx, dur.timed, hint, rec)
		first, second := rec.durations(spFirstFrame), rec.durations(spSecondFrame)
		slices.Sort(first)
		slices.Sort(second)
		l["daemon.first_frame_p50_us"] = us(percentile(first, 50))
		l["daemon.second_frame_p50_us"] = us(percentile(second, 50))
		l["bench.trace_overhead_pct"] = 100 * (tp.pct(floorPct) - p.pct(floorPct)) / p.pct(floorPct)
	}

	// Final state: the queues hold exactly the backlog, and the engine
	// matched exactly the pairs sent, on the queue the workload aims at.
	res.attempted, res.failed = d.pairs, res.failed+d.failed
	if d.firstErr != nil {
		res.fail(0, "transport: %v", d.firstErr)
	} else {
		wantPRQ, wantUMQ, wantPRQMatch, wantUMQMatch := w.backlog, 0, d.pairs, uint64(0)
		if !w.postFirst {
			wantPRQ, wantUMQ, wantPRQMatch, wantUMQMatch = 0, w.backlog, 0, d.pairs
		}
		prq, umq, err := s.cl.QueueLens()
		if err != nil || prq != wantPRQ || umq != wantUMQ {
			res.fail(1, "queue lengths prq=%d umq=%d err=%v, want %d/%d", prq, umq, err, wantPRQ, wantUMQ)
		}
		if st := d.en.Stats(); st.PRQMatches != wantPRQMatch || st.UMQMatches != wantUMQMatch {
			res.fail(1, "engine matched prq=%d umq=%d, want %d/%d", st.PRQMatches, st.UMQMatches, wantPRQMatch, wantUMQMatch)
		}
	}
	if d.failed > 0 {
		res.fail(0, "%d of %d pairs got a wrong reply", d.failed, d.pairs)
	}

	if err := s.stop(); err != nil {
		res.fail(1, "daemon stop: %v", err)
	}
	if w.journal && d.firstErr == nil {
		// Every applied op is one fixed-size record; a short journal
		// means appends failed (the daemon only logs those).
		want := int64(2*d.pairs+uint64(w.backlog)) * recov.JournalRecordSize
		if got, err := dirBytes(journalDir); err != nil || got != want {
			res.fail(1, "journal holds %d bytes (err=%v), want %d", got, err, want)
		}
	}

	if traced {
		if err := replayLayers(ctx, w, seed, rec, &res); err != nil {
			return res, err
		}
		if traceOut != "" {
			if err := rec.writeChrome(traceOut, w.name); err != nil {
				return res, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
