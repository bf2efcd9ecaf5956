// Package daemon turns the matching engine into a long-running serving
// system: engine instances (with their heaters, telemetry collector,
// and simulated PMU lanes attached for the life of the process) served
// to many concurrent client connections over the internal/mpi socket
// wire protocol, with a live HTTP admin plane.
//
// The paper's claim — semi-permanent cache occupancy pays off — is a
// statement about persistent network services, not run-to-completion
// benchmarks. The daemon is where that setting exists in this repo:
// match traffic arrives over real TCP for hours, the telemetry registry
// is scraped live by Prometheus (/metrics), and a one-shot diagnostic
// bundle (/debug/profile) captures host pprof profiles alongside the
// simulated PMU's perf-stat report, so cache-residency behaviour under
// sustained load is observable without stopping the process.
//
// Concurrency model: each engine, with its heater, PMU lane, and
// ingress fault wire, is single-threaded by design; the server hosts
// Config.Shards such lanes (default 1) and serializes each behind its
// own mutex, routing every operation by communicator context
// (ctx → shard, see shard.go). Connection handling, the admin plane,
// and the telemetry registry are fully concurrent — the registry and
// sampler are safe to scrape while operations mutate them. A
// connection-level credit window (Config.Window) bounds how many
// operations one client frame may carry; the window rides back to the
// client in every reply's Credits field.
//
// Lifecycle: Run serves until the first signal (SIGTERM/SIGINT), then
// drains gracefully — the listener closes, /readyz flips to 503,
// in-flight connections get DrainTimeout to finish, exporters flush,
// and the final perf-stat report is emitted. A second signal during the
// drain forces shutdown with ErrForced (a nonzero exit in spco-daemon).
package daemon

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spco/internal/ctrace"
	"spco/internal/engine"
	"spco/internal/fault"
	"spco/internal/match"
	"spco/internal/mpi"
	"spco/internal/perf"
	"spco/internal/recov"
	"spco/internal/telemetry"
)

// Version identifies the build in spco_build_info and /status;
// overridable at link time:
//
//	go build -ldflags "-X spco/internal/daemon.Version=v1.2.3"
var Version = "dev"

// ErrForced reports a shutdown forced by a second signal during the
// graceful drain; commands should exit nonzero.
var ErrForced = errors.New("daemon: forced shutdown before drain completed")

// DefaultDrainTimeout bounds the graceful drain.
const DefaultDrainTimeout = 5 * time.Second

// Config describes a daemon.
type Config struct {
	// Engine is the hosted engines' configuration. Telemetry must carry
	// the collector the admin plane scrapes (New fills it from Collector
	// when unset).
	Engine engine.Config

	// Shards is the number of per-context engine lanes match traffic is
	// partitioned across (ctx → shard, see shard.go). Default 1: a
	// single lane, bit-identical to the pre-sharding daemon. Each MPI
	// context lives wholly on one shard, so sharding never changes match
	// results — only which engine's queues and cache state a context's
	// traffic touches.
	Shards int

	// Window is the per-connection credit window: the most operations
	// one wire frame may carry into the engines. Ops beyond the window
	// earn WireBusy without being applied, and every reply advertises
	// the window in its Credits field so clients clamp their batch size.
	// 0 (the default) disables windowing.
	Window int

	// ListenAddr accepts match traffic ("127.0.0.1:0" picks a port);
	// AdminAddr serves the HTTP admin plane.
	ListenAddr string
	AdminAddr  string

	// Collector receives engine telemetry and the daemon's own serving
	// metrics; /metrics exports it live. Required.
	Collector *telemetry.Collector

	// PMU is the simulated performance-monitoring unit attached to the
	// engine for the life of the process; /debug/profile bundles its
	// perf-stat report and profiles. Optional.
	PMU *perf.PMU

	// Wire, when enabled, applies the unreliable-wire fate model to
	// inbound arrive frames at ingress: dropped or corrupted frames earn
	// a WireNack the client must retransmit, duplicated frames are
	// delivered once and counted as suppressed — the daemon-shaped
	// analogue of the fault transport's lossy link.
	Wire fault.WireConfig

	// FaultSeed seeds the ingress wire (default 1).
	FaultSeed uint64

	// DrainTimeout bounds the graceful drain (default
	// DefaultDrainTimeout).
	DrainTimeout time.Duration

	// MetricsOut and SeriesOut, when set, receive a final export of the
	// registry and sampler during shutdown (the exporter flush).
	MetricsOut string
	SeriesOut  string

	// PerfOut receives the final perf-stat report on shutdown (default
	// os.Stdout; io.Discard silences it).
	PerfOut io.Writer

	// JournalDir, when set, turns on the crash-recovery spine
	// (recovery.go): per-shard append-only op journals and the snapshot
	// file live there. Empty (the default) disables journaling entirely —
	// the serving path pays only nil checks.
	JournalDir string

	// Recover makes New rebuild engine state from JournalDir before
	// serving: snapshot restore, then journal-tail replay. A missing
	// snapshot and empty journals are a clean first boot, so -recover is
	// safe to pass always.
	Recover bool

	// SnapshotEvery is the periodic snapshot cadence (0: only explicit
	// WriteSnapshot calls). Requires JournalDir.
	SnapshotEvery time.Duration

	// JournalSync fsyncs each shard journal every that many records
	// (default 64). Process crashes lose nothing regardless — every
	// record is a single write(2) — the cadence only bounds loss on
	// power failure.
	JournalSync int

	// WatchdogDeadline flags a shard lane wedged when its lock has been
	// held this long (default DefaultWatchdogDeadline); WatchdogInterval
	// is the sweep cadence (default deadline/4, at most 1s). A wedged
	// lane flips /readyz to 503 and raises spco_shard_wedged.
	WatchdogDeadline time.Duration
	WatchdogInterval time.Duration

	// AdminReadHeaderTimeout bounds how long the admin HTTP server waits
	// for a request's headers (default 5s); it is the slow-loris guard
	// on the admin plane.
	AdminReadHeaderTimeout time.Duration

	// Trace is the causal-trace flight recorder. Nil gets a default
	// always-on recorder (bounded, tail-retained) so /debug/trace works
	// on every daemon; supply one to tune capacity/retention.
	Trace *ctrace.Recorder

	// TraceOut, when set, receives a final Chrome trace-event JSON dump
	// of the flight recorder during shutdown.
	TraceOut string

	// Logf logs serving events (default: silent).
	Logf func(format string, args ...any)
}

// Server is a running daemon.
type Server struct {
	cfg Config

	// shards are the per-context serving lanes; each owns its own
	// single-threaded simulation stack behind its own mutex (shard.go).
	shards []*shard
	tr     *ctrace.Recorder

	ln      net.Listener
	adminLn net.Listener
	admin   *http.Server

	start    time.Time
	ready    atomic.Bool
	draining atomic.Bool
	quit     chan struct{} // Stop() closes: begin graceful drain
	quitOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	// drainDeadline is the read deadline beginDrain hands every
	// connection; guarded by connMu so a connection registering while
	// the drain begins still picks it up (see register).
	drainDeadline time.Time
	connWG        sync.WaitGroup

	// Serving tallies, mirrored into registry counters so a live scrape
	// sees them without a publish step.
	active        atomic.Int64
	total         atomic.Uint64
	nacks         atomic.Uint64
	dupSuppressed atomic.Uint64
	creditStalls  atomic.Uint64

	cFrames map[byte]*telemetry.Counter
	cNacks  *telemetry.Counter
	cDups   *telemetry.Counter
	cConns  *telemetry.Counter
	cStalls *telemetry.Counter
	gActive *telemetry.Gauge
	gUptime *telemetry.Gauge

	// Crash-recovery spine (recovery.go; sessions is always built so
	// session handshakes work with or without journaling).
	sessions     *sessionTable
	recRecovered atomic.Bool   // this boot replayed recovered state
	recReplayed  atomic.Uint64 // journal records replayed at boot
	recSnapshots atomic.Uint64 // snapshots written this boot
	recLastSnap  atomic.Int64  // unix nanos of the last snapshot
	recResumed   atomic.Uint64 // sessions resumed over the wire
	recReplays   atomic.Uint64 // duplicate ops answered from session rings
	cReplayed    *telemetry.Counter
	cSnapshots   *telemetry.Counter
	cResumed     *telemetry.Counter
	cReplays     *telemetry.Counter
	gWedged      *telemetry.Gauge

	profileBusy atomic.Bool
}

// New builds a daemon and binds both listeners (so Addr/AdminAddr are
// known before Run). The engine is constructed here; a bad engine
// configuration fails fast.
func New(cfg Config) (*Server, error) {
	if cfg.Collector == nil {
		return nil, errors.New("daemon: Config.Collector is required")
	}
	if err := cfg.Wire.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 0 || cfg.Shards > 256 {
		return nil, fmt.Errorf("daemon: Config.Shards = %d (want 0..256)", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Window < 0 || cfg.Window > 65535 {
		return nil, fmt.Errorf("daemon: Config.Window = %d (want 0..65535, the credit field's range)", cfg.Window)
	}
	if cfg.Engine.Telemetry == nil {
		cfg.Engine.Telemetry = cfg.Collector
	}
	if cfg.Engine.Perf == nil {
		cfg.Engine.Perf = cfg.PMU
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = 1
	}
	if cfg.PerfOut == nil {
		cfg.PerfOut = os.Stdout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Trace == nil {
		// The flight recorder is always on: bounded, tail-retained, and
		// dumpable at any moment via /debug/trace.
		cfg.Trace = ctrace.New(ctrace.Options{})
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.AdminAddr == "" {
		cfg.AdminAddr = "127.0.0.1:0"
	}
	if cfg.Recover && cfg.JournalDir == "" {
		return nil, errors.New("daemon: Config.Recover requires Config.JournalDir")
	}
	if cfg.SnapshotEvery > 0 && cfg.JournalDir == "" {
		return nil, errors.New("daemon: Config.SnapshotEvery requires Config.JournalDir")
	}
	if cfg.WatchdogDeadline <= 0 {
		cfg.WatchdogDeadline = DefaultWatchdogDeadline
	}
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = cfg.WatchdogDeadline / 4
		if cfg.WatchdogInterval > time.Second {
			cfg.WatchdogInterval = time.Second
		}
	}
	if cfg.AdminReadHeaderTimeout <= 0 {
		cfg.AdminReadHeaderTimeout = 5 * time.Second
	}

	s := &Server{
		cfg: cfg,
		tr:  cfg.Trace,
		// The trace clock starts here, once: flight-recorder events from
		// traffic arriving between New and Run (tests drive this) must
		// share the timeline of everything after, not jump backwards.
		start: time.Now(),
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	shards, err := newShards(s, cfg)
	if err != nil {
		return nil, err
	}
	s.shards = shards

	reg := cfg.Collector.Registry
	reg.Help("spco_recovery_replayed_ops_total", "Journal records replayed into the engines at boot.")
	reg.Help("spco_recovery_snapshots_total", "State snapshots written.")
	reg.Help("spco_recovery_sessions_resumed_total", "Client sessions resumed over the wire.")
	reg.Help("spco_recovery_dup_replays_total", "Duplicate sequenced ops answered from session reply rings.")
	reg.Help("spco_shard_wedged", "Serving lanes currently flagged wedged by the watchdog.")
	s.cReplayed = reg.Counter("spco_recovery_replayed_ops_total", nil)
	s.cSnapshots = reg.Counter("spco_recovery_snapshots_total", nil)
	s.cResumed = reg.Counter("spco_recovery_sessions_resumed_total", nil)
	s.cReplays = reg.Counter("spco_recovery_dup_replays_total", nil)
	s.gWedged = reg.Gauge("spco_shard_wedged", nil)

	if s.journaling() {
		if err := s.setupRecovery(); err != nil {
			return nil, err
		}
	} else {
		s.sessions = newSessionTable()
	}
	reg.Help("spco_daemon_frames_total", "Wire frames served by operation.")
	reg.Help("spco_daemon_nacks_total", "Arrive frames refused at ingress by fault injection.")
	reg.Help("spco_daemon_dups_suppressed_total", "Duplicated arrive frames delivered once.")
	reg.Help("spco_daemon_connections_total", "Client connections accepted.")
	reg.Help("spco_daemon_connections_active", "Client connections currently open.")
	reg.Help("spco_daemon_uptime_seconds", "Seconds since the daemon started serving.")
	reg.Help("spco_region_residency", "Cache-residency fraction by region owner and level, refreshed per scrape.")
	s.cFrames = map[byte]*telemetry.Counter{
		mpi.WireArrive: reg.Counter("spco_daemon_frames_total", telemetry.Labels{"op": "arrive"}),
		mpi.WirePost:   reg.Counter("spco_daemon_frames_total", telemetry.Labels{"op": "post"}),
		mpi.WirePhase:  reg.Counter("spco_daemon_frames_total", telemetry.Labels{"op": "phase"}),
		mpi.WireStat:   reg.Counter("spco_daemon_frames_total", telemetry.Labels{"op": "stat"}),
		mpi.WirePing:   reg.Counter("spco_daemon_frames_total", telemetry.Labels{"op": "ping"}),
	}
	reg.Help("spco_daemon_credit_stalls_total", "Operations refused for exceeding the per-connection credit window.")
	s.cNacks = reg.Counter("spco_daemon_nacks_total", nil)
	s.cDups = reg.Counter("spco_daemon_dups_suppressed_total", nil)
	s.cConns = reg.Counter("spco_daemon_connections_total", nil)
	s.cStalls = reg.Counter("spco_daemon_credit_stalls_total", nil)
	s.gActive = reg.Gauge("spco_daemon_connections_active", nil)
	s.gUptime = reg.Gauge("spco_daemon_uptime_seconds", nil)
	reg.Help("spco_build_info", "Build identity (constant 1; the labels carry the information).")
	reg.Gauge("spco_build_info",
		telemetry.Labels{"version": Version, "go": runtime.Version()}).Set(1)

	if s.ln, err = net.Listen("tcp", cfg.ListenAddr); err != nil {
		return nil, err
	}
	if s.adminLn, err = net.Listen("tcp", cfg.AdminAddr); err != nil {
		s.ln.Close()
		return nil, err
	}
	// The admin plane faces operators and scrapers, not the wire
	// protocol's framing discipline — bound every phase of an HTTP
	// exchange so a stalled or malicious peer cannot pin a connection.
	// WriteTimeout must clear the longest legitimate response:
	// /debug/profile's CPU capture is clamped to 30s (profile.go).
	s.admin = &http.Server{
		Handler:           s.adminMux(),
		ReadHeaderTimeout: cfg.AdminReadHeaderTimeout,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}

	// Host lock contention and blocking are part of the diagnostic story
	// for a serving system; sample them so mutex.pprof and block.pprof in
	// the profile bundle have something to say.
	runtime.SetMutexProfileFraction(5)
	runtime.SetBlockProfileRate(1_000_000)
	return s, nil
}

// Addr returns the bound match-traffic address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AdminAddr returns the bound admin-plane address.
func (s *Server) AdminAddr() string { return s.adminLn.Addr().String() }

// Engine exposes shard 0's engine (the only one when Shards is 1);
// callers must not drive it while the server is running (the server
// owns the serialization).
func (s *Server) Engine() *engine.Engine { return s.shards[0].en }

// ShardCount reports the number of serving lanes.
func (s *Server) ShardCount() int { return len(s.shards) }

// ShardEngine exposes shard i's engine, under the same no-driving
// contract as Engine.
func (s *Server) ShardEngine(i int) *engine.Engine { return s.shards[i].en }

// Stop begins the graceful drain, as the first SIGTERM would.
func (s *Server) Stop() { s.quitOnce.Do(func() { close(s.quit) }) }

// Run serves until the first delivered signal (or Stop), then drains:
// the listener closes, readiness flips, in-flight connections get
// DrainTimeout to finish, exporters flush, and the final perf-stat is
// emitted. A second signal during the drain forces shutdown and returns
// ErrForced. A nil signal channel serves until Stop.
func (s *Server) Run(signals <-chan os.Signal) error {
	go s.admin.Serve(s.adminLn)
	go s.acceptLoop()
	go s.watchdogLoop()
	if s.journaling() && s.cfg.SnapshotEvery > 0 {
		go s.snapshotLoop()
	}
	s.ready.Store(true)
	s.cfg.Logf("daemon: serving match traffic on %s, admin on %s", s.Addr(), s.AdminAddr())

	select {
	case sig := <-signals:
		s.cfg.Logf("daemon: received %v, draining (timeout %s)", sig, s.cfg.DrainTimeout)
	case <-s.quit:
		s.cfg.Logf("daemon: stop requested, draining (timeout %s)", s.cfg.DrainTimeout)
	}
	s.beginDrain()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.finish()
		s.cfg.Logf("daemon: drain complete")
		return nil
	case sig := <-signals:
		s.cfg.Logf("daemon: received %v during drain, forcing shutdown", sig)
		s.forceClose()
		return ErrForced
	}
}

// beginDrain stops accepting and bounds the remaining connections. The
// drain deadline is published and the draining flag flipped inside the
// same connMu critical section that sweeps the conn table, so register
// and this sweep fully serialize: every connection either is in the
// table here (and gets its deadline from the sweep) or registers after
// and sees draining already true (and applies the deadline itself).
// Before this interlock, a connection accepted after the draining check
// but registered after the sweep never got a deadline and could hang
// the graceful drain until forced shutdown.
func (s *Server) beginDrain() {
	s.ready.Store(false)
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.connMu.Lock()
	s.drainDeadline = deadline
	s.draining.Store(true)
	for c := range s.conns {
		c.SetReadDeadline(deadline)
	}
	s.connMu.Unlock()
	s.ln.Close()
}

// forceClose tears down every connection immediately.
func (s *Server) forceClose() {
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	s.admin.Close()
}

// finish flushes exporters and emits the final perf-stat reports. The
// journals are synced and closed but no final snapshot is taken — the
// journal alone fully reconstructs the state, and skipping the
// snapshot keeps the graceful-stop path exercising the same replay
// machinery a crash does.
func (s *Server) finish() {
	if s.journaling() {
		s.closeJournals()
	}
	for _, sh := range s.shards {
		sh.lock()
		sh.en.PublishTelemetry()
		sh.refreshGaugesLocked()
		if sh.pmu != nil {
			sh.pmu.Publish(s.cfg.Collector.Registry, s.pmuBase(sh.idx))
		}
		sh.unlock()
	}
	s.gUptime.Set(time.Since(s.start).Seconds())
	s.gActive.Set(float64(s.active.Load()))

	if s.cfg.MetricsOut != "" {
		if err := telemetry.WriteMetricsFile(s.cfg.MetricsOut, s.cfg.Collector); err != nil {
			s.cfg.Logf("daemon: metrics flush: %v", err)
		}
	}
	if s.cfg.SeriesOut != "" {
		if err := telemetry.WriteSeriesFile(s.cfg.SeriesOut, s.cfg.Collector); err != nil {
			s.cfg.Logf("daemon: series flush: %v", err)
		}
	}
	for _, sh := range s.shards {
		if sh.pmu == nil {
			continue
		}
		sh.lock()
		sh.pmu.WriteReport(s.cfg.PerfOut)
		sh.unlock()
	}
	if s.cfg.TraceOut != "" {
		if err := s.writeTraceFile(s.cfg.TraceOut); err != nil {
			s.cfg.Logf("daemon: trace flush: %v", err)
		}
	}
	for _, trig := range s.tr.Triggered() {
		s.cfg.Logf("daemon: trace trigger: %s", trig)
	}
	s.admin.Close()
}

// writeTraceFile dumps the flight recorder as Chrome trace JSON.
func (s *Server) writeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.draining.Load() {
			c.Close()
			continue
		}
		s.connWG.Add(1)
		s.register(c)
		s.total.Add(1)
		s.cConns.Inc()
		// Publish the Add result, not a separate Load: with a second
		// racing Load the two gauge writes could land out of order and
		// leave the gauge stale.
		s.gActive.Set(float64(s.active.Add(1)))
		go s.serveConn(c)
	}
}

// register adds a connection to the conn table. If a drain began
// between acceptLoop's draining check and this registration, the sweep
// in beginDrain has already run — so the drain deadline is applied
// here, under the same lock, closing the window where a late-registered
// connection could outlive the drain unbounded.
func (s *Server) register(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	if s.draining.Load() {
		c.SetReadDeadline(s.drainDeadline)
	}
	s.connMu.Unlock()
}

// serveConn runs one connection's request-response loop.
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		s.gActive.Set(float64(s.active.Add(-1)))
		s.connWG.Done()
	}()

	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	hello, err := mpi.ReadWireHello(br)
	if err != nil {
		return
	}
	// Resolve the connection's session. Ephemeral connections (the
	// default, and the whole pre-v4 world) get no dedup state and pay
	// nothing for the machinery; WireSessNew mints an identity;
	// WireSessResume reattaches to one, telling the client the highest
	// sequenced op the server has applied so the client re-sends only
	// the gap. An unknown session id (state lost, e.g. recovery without
	// a journal) is answered WireWelcomeLost and the connection closed —
	// resuming blind would silently break exactly-once.
	var sess *session
	welcome := mpi.WireWelcome{Status: mpi.WireWelcomeEphemeral}
	switch hello.Mode {
	case mpi.WireSessNew:
		sess = s.sessions.create()
		welcome = mpi.WireWelcome{Status: mpi.WireWelcomeNew, Session: sess.id}
	case mpi.WireSessResume:
		if got, ok := s.sessions.resume(hello.Session); ok {
			sess = got
			welcome = mpi.WireWelcome{Status: mpi.WireWelcomeResumed,
				Session: sess.id, HighWater: sess.highWater()}
			s.recResumed.Add(1)
			s.cResumed.Inc()
		} else {
			welcome = mpi.WireWelcome{Status: mpi.WireWelcomeLost, Session: hello.Session}
		}
	}
	if err := mpi.WriteWireWelcome(bw, welcome); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	if welcome.Status == mpi.WireWelcomeLost {
		return
	}
	var sid uint64
	if sess != nil {
		sid = sess.id
	}

	// The credit window: at most window ops per frame reach the engines;
	// the rest earn WireBusy unapplied, and every reply advertises the
	// window so a well-behaved client clamps its batches before ever
	// stalling (0 = windowing off).
	window := s.cfg.Window
	credits := uint16(window)

	var (
		ops  []mpi.WireOp
		reps []mpi.WireReply
	)
	for {
		var batch bool
		var err error
		ops, batch, err = mpi.ReadWireFrame(br, ops)
		if err != nil {
			if isWireDecodeError(err) {
				mpi.WriteWireReply(bw, mpi.WireReply{Status: mpi.WireErr, Credits: credits})
				bw.Flush()
			}
			return
		}
		if !batch {
			op := ops[0]
			rep, replayed := s.dedup(sess, op)
			if !replayed {
				rep = s.apply(op, sid)
				if sess != nil && op.Seq != 0 {
					sess.record(op.Seq, rep)
				}
			}
			rep.Credits = credits
			if err := mpi.WriteWireReply(bw, rep); err != nil {
				return
			}
		} else {
			admitted := ops
			if window > 0 && len(ops) > window {
				admitted = ops[:window]
			}
			if sess == nil {
				reps = s.applyBatch(admitted, reps)
			} else {
				reps = s.applyBatchSession(admitted, reps, sess)
			}
			if stalled := len(ops) - len(admitted); stalled > 0 {
				s.creditStalls.Add(uint64(stalled))
				s.cStalls.Add(float64(stalled))
				for _, op := range ops[len(admitted):] {
					reps = append(reps, mpi.WireReply{Kind: op.Kind, Status: mpi.WireBusy})
				}
			}
			for i := range reps {
				reps[i].Credits = credits
				if err := mpi.WriteWireReply(bw, reps[i]); err != nil {
					return
				}
			}
		}
		// Flush when the pipeline runs dry: consecutive buffered requests
		// batch their replies into one segment.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// isWireDecodeError distinguishes a malformed frame (worth an error
// reply) from a closed or timed-out connection. A batch frame that
// promised N ops and truncated mid-payload is malformed — the client
// gets exactly one WireErr for the whole frame — even though the
// underlying read error is an EOF.
func isWireDecodeError(err error) bool {
	if errors.Is(err, mpi.ErrBatchTruncated) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	return !errors.As(err, &ne)
}

// hostNS is the daemon's trace clock: host nanoseconds since start
// (the daemon serves real traffic, so its timeline is wall time).
func (s *Server) hostNS() float64 {
	return float64(time.Since(s.start).Nanoseconds())
}

// adoptTrace joins the client-minted trace context riding a wire frame
// (zero when the client is untraced or the recorder is off). The root
// span's name is formatted only for a traced op: an untraced one must
// not pay for a string nobody will read.
func (s *Server) adoptTrace(op mpi.WireOp) ctrace.Context {
	if op.Trace == 0 {
		return ctrace.Context{}
	}
	pid := int(op.Rank)
	if pid < 0 {
		pid = 0
	}
	return s.tr.Adopt(ctrace.Context{Trace: op.Trace, Parent: op.Span}, pid,
		fmt.Sprintf("msg tag=%d", op.Tag), s.hostNS())
}

// dedup answers a sequenced op from the session's reply ring when the
// server has already applied it — the exactly-once half of session
// resume. A ring miss (including a seq at or below the high-water mark
// whose reply was evicted or never recorded, e.g. an ingress NACK that
// was never journaled) applies fresh, which is correct in every
// re-send case: the client only re-sends ops it never saw answered.
func (s *Server) dedup(sess *session, op mpi.WireOp) (mpi.WireReply, bool) {
	if sess == nil || op.Seq == 0 {
		return mpi.WireReply{}, false
	}
	rep, ok := sess.lookup(op.Seq)
	if ok {
		s.recReplays.Add(1)
		s.cReplays.Inc()
	}
	return rep, ok
}

// apply executes one wire operation for session sid (0: ephemeral).
func (s *Server) apply(op mpi.WireOp, sid uint64) mpi.WireReply {
	if ctr := s.cFrames[op.Kind]; ctr != nil {
		ctr.Inc()
	}
	switch op.Kind {
	case mpi.WireArrive, mpi.WirePost:
		sh := s.shardFor(op.Ctx)
		sh.lock()
		defer sh.unlock()
		sh.sid = sid
		sh.frames(1)
		return sh.applyLocked(op)
	case mpi.WirePhase:
		return s.applyPhase(op, sid)
	case mpi.WireStat:
		return s.applyStat()
	case mpi.WirePing:
		return mpi.WireReply{Kind: op.Kind, Status: mpi.WireOK}
	default:
		return mpi.WireReply{Kind: op.Kind, Status: mpi.WireErr}
	}
}

// applyBatch executes an ephemeral connection's batch frame, appending
// one reply per op to reps[:0] and returning the result.
func (s *Server) applyBatch(ops []mpi.WireOp, reps []mpi.WireReply) []mpi.WireReply {
	return s.appendBatch(ops, reps[:0], 0)
}

// applyBatchSession executes a session connection's batch frame:
// sequenced ops the ring already answered are replayed from it without
// touching an engine, and the fresh runs in between go through the
// normal batch path with their replies recorded as they are produced.
func (s *Server) applyBatchSession(ops []mpi.WireOp, reps []mpi.WireReply, sess *session) []mpi.WireReply {
	reps = reps[:0]
	for i := 0; i < len(ops); {
		if rep, ok := s.dedup(sess, ops[i]); ok {
			reps = append(reps, rep)
			i++
			continue
		}
		j := i + 1
		for j < len(ops) {
			if ops[j].Seq != 0 {
				if _, ok := sess.lookup(ops[j].Seq); ok {
					break
				}
			}
			j++
		}
		base := len(reps)
		reps = s.appendBatch(ops[i:j], reps, sess.id)
		for k := i; k < j; k++ {
			if ops[k].Seq != 0 {
				sess.record(ops[k].Seq, reps[base+k-i])
			}
		}
		i = j
	}
	return reps
}

// appendBatch executes a batch frame's ops, appending one reply per
// op. Consecutive arrives and posts landing on the same shard are
// applied as one run under a single lock acquisition (taking the
// ArriveBatch fast path where eligible, see shard.applyRun); phases,
// stats, and pings fall back to their cross-shard scalar handling.
// Replies stay in op order throughout.
func (s *Server) appendBatch(ops []mpi.WireOp, reps []mpi.WireReply, sid uint64) []mpi.WireReply {
	for i := 0; i < len(ops); {
		switch ops[i].Kind {
		case mpi.WireArrive, mpi.WirePost:
			sh := s.shardFor(ops[i].Ctx)
			j := i + 1
			for j < len(ops) && routedTo(ops[j], sh, s) {
				j++
			}
			reps = sh.applyRun(ops[i:j], reps, sid)
			i = j
		default:
			if ctr := s.cFrames[ops[i].Kind]; ctr != nil {
				ctr.Inc()
			}
			switch ops[i].Kind {
			case mpi.WirePhase:
				reps = append(reps, s.applyPhase(ops[i], sid))
			case mpi.WireStat:
				reps = append(reps, s.applyStat())
			case mpi.WirePing:
				reps = append(reps, mpi.WireReply{Kind: mpi.WirePing, Status: mpi.WireOK})
			default:
				reps = append(reps, mpi.WireReply{Kind: ops[i].Kind, Status: mpi.WireErr})
			}
			i++
		}
	}
	return reps
}

// routedTo reports whether the op is ctx-routable and lands on sh.
func routedTo(op mpi.WireOp, sh *shard, s *Server) bool {
	return (op.Kind == mpi.WireArrive || op.Kind == mpi.WirePost) && s.shardFor(op.Ctx) == sh
}

// applyPhase runs one compute phase on every shard, in index order,
// one lock at a time: a phase models the application going compute-
// bound, which perturbs every lane's cache state, not one context's.
// With Shards=1 this is exactly the pre-sharding phase handling.
// Because a phase touches every lane, it is journaled into every
// shard's journal — each journal independently replays to its lane's
// full history.
func (s *Server) applyPhase(op mpi.WireOp, sid uint64) mpi.WireReply {
	for _, sh := range s.shards {
		sh.lock()
		sh.frames(1)
		sh.en.BeginComputePhase(op.DurationNS)
		if sh.jw != nil {
			if err := sh.jw.Append(recov.JournalRecord{Session: sid, Op: op}); err != nil {
				s.cfg.Logf("daemon: shard %d journal append: %v", sh.idx, err)
			}
		}
		if s.tr != nil {
			if ht := sh.en.Heater(); ht != nil {
				s.tr.Counter(sh.heaterTrack, s.hostNS(),
					ctrace.CV{K: "sweeps", V: float64(ht.Sweeps())},
					ctrace.CV{K: "coverage", V: ht.LastSweepCoverage()})
			}
		}
		sh.unlock()
	}
	return mpi.WireReply{Kind: mpi.WirePhase, Status: mpi.WireOK}
}

// applyStat sums queue depths across the shards, one lock at a time:
// the wire-visible depth is the daemon total, so clients (and the
// chaos queue-drain audit) see one figure regardless of shard count.
func (s *Server) applyStat() mpi.WireReply {
	rep := mpi.WireReply{Kind: mpi.WireStat, Status: mpi.WireOK}
	var prq, umq int
	for _, sh := range s.shards {
		sh.lock()
		prq += sh.en.PRQLen()
		umq += sh.en.UMQLen()
		sh.unlock()
	}
	rep.PRQLen = uint32(prq)
	rep.UMQLen = uint32(umq)
	return rep
}

// applyLocked executes one ctx-routed wire operation (arrive or post)
// on this shard; the caller holds sh.mu and has counted the frame.
//
// An untraced op (tctx invalid) must not pay for tracing: every ctrace
// call is a no-op on a zero context, but its arguments — formatted
// names, KV slices, trace-clock readings — are evaluated before the
// callee can see that, so they are built only behind tctx.Valid().
func (sh *shard) applyLocked(op mpi.WireOp) mpi.WireReply {
	s := sh.srv
	rep := mpi.WireReply{Kind: op.Kind, Status: mpi.WireOK}
	switch op.Kind {
	case mpi.WireArrive:
		tctx := s.adoptTrace(op)
		traced := tctx.Valid()
		pid := int(op.Rank)
		if pid < 0 {
			pid = 0
		}
		if sh.wire != nil {
			fate := sh.wire.Judge()
			if fate.Dropped || fate.Corrupted {
				s.nacks.Add(1)
				s.cNacks.Inc()
				rep.Status = mpi.WireNack
				if traced {
					s.tr.Instant(tctx, ctrace.LaneWire, pid, "ingress-nack", s.hostNS())
					s.tr.MarkFault(tctx.Trace)
				}
				return rep
			}
			if fate.Duplicated {
				// The wire would deliver a second copy; the daemon's dedup
				// (one frame, one engine delivery) suppresses it.
				s.dupSuppressed.Add(1)
				s.cDups.Inc()
				if traced {
					s.tr.Instant(tctx, ctrace.LaneWire, pid, "dup-suppressed", s.hostNS())
					s.tr.MarkFault(tctx.Trace)
				}
			}
		}
		env := match.Envelope{Rank: op.Rank, Tag: op.Tag, Ctx: op.Ctx}
		var at float64
		if traced {
			at = s.hostNS()
		}
		sh.pmu.SetTraceContext(op.Trace, op.Span)
		req, outcome, cy := sh.en.ArriveFull(env, op.Handle)
		rep.Outcome = byte(outcome)
		rep.Handle = req
		rep.Cycles = cy
		if outcome == engine.ArriveRefused {
			rep.Status = mpi.WireBusy
		}
		if traced {
			s.tr.Complete(tctx, ctrace.LaneEngine, pid, "arrive",
				at, sh.en.CyclesToNanos(cy),
				ctrace.KV{K: "outcome", V: outcome.String()})
			switch outcome {
			case engine.ArriveRefused:
				s.tr.Instant(tctx, ctrace.LaneDaemon, pid, "busy-nack", s.hostNS())
				s.tr.MarkFault(tctx.Trace)
			case engine.ArriveMatched:
				s.tr.Finish(tctx.Trace, s.hostNS(), "matched")
			}
		}
		// The arrive reached the engine (refusals included — they tick
		// engine counters); ingress NACKs returned above and stay out of
		// the journal.
		sh.noteApplied(op, rep)
	case mpi.WirePost:
		tctx := s.adoptTrace(op)
		traced := tctx.Valid()
		pid := int(op.Rank)
		if pid < 0 {
			pid = 0
		}
		var at float64
		if traced {
			at = s.hostNS()
		}
		msg, matched, cy := sh.en.PostRecv(int(op.Rank), int(op.Tag), op.Ctx, op.Handle)
		if matched {
			rep.Outcome = 1
			rep.Handle = msg
		}
		rep.Cycles = cy
		if traced {
			s.tr.Complete(tctx, ctrace.LaneEngine, pid, "post",
				at, sh.en.CyclesToNanos(cy),
				ctrace.KV{K: "matched", V: strconv.FormatBool(matched)})
			if matched {
				s.tr.Finish(tctx.Trace, s.hostNS(), "matched")
			}
		}
		sh.noteApplied(op, rep)
	default:
		rep.Status = mpi.WireErr
	}
	return rep
}

// pmuBase labels a shard's PMU publication: the collector's base
// labels, plus the shard index when more than one lane publishes (a
// one-shard daemon publishes exactly what the pre-sharding one did).
func (s *Server) pmuBase(idx int) telemetry.Labels {
	if len(s.shards) == 1 {
		return s.cfg.Collector.Base
	}
	base := make(telemetry.Labels, len(s.cfg.Collector.Base)+1)
	for k, v := range s.cfg.Collector.Base {
		base[k] = v
	}
	base["shard"] = strconv.Itoa(idx)
	return base
}

// Stats is a point-in-time snapshot of serving activity.
type Stats struct {
	ConnectionsActive int64
	ConnectionsTotal  uint64
	Nacks             uint64
	DupSuppressed     uint64
	CreditStalls      uint64
}

// Stats returns current serving tallies.
func (s *Server) Stats() Stats {
	return Stats{
		ConnectionsActive: s.active.Load(),
		ConnectionsTotal:  s.total.Load(),
		Nacks:             s.nacks.Load(),
		DupSuppressed:     s.dupSuppressed.Load(),
		CreditStalls:      s.creditStalls.Load(),
	}
}

// String renders a one-line summary for logs.
func (s Stats) String() string {
	return fmt.Sprintf("conns=%d/%d nacks=%d dups=%d stalls=%d",
		s.ConnectionsActive, s.ConnectionsTotal, s.Nacks, s.DupSuppressed, s.CreditStalls)
}
