package perf

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"spco/internal/cache"
	"spco/internal/simmem"
	"spco/internal/telemetry"
)

// TestCountersMirrorHierarchyStats drives a hierarchy with a PMU
// attached and checks the PMU's demand counters agree with the
// hierarchy's own statistics — the probe sees every demand access
// exactly once, at the level that served it.
func TestCountersMirrorHierarchyStats(t *testing.T) {
	h := cache.New(cache.SandyBridge)
	p := New(Options{})
	h.AttachProbe(p)

	for i := 0; i < 4; i++ {
		for a := simmem.Addr(0); a < 1<<16; a += 64 {
			h.Access(0, a, 8)
		}
	}
	st := h.Stats()
	c := p.Totals()

	if got, want := c.Accesses(), st.Accesses; got != want {
		t.Fatalf("demand accesses: PMU %d, hierarchy %d", got, want)
	}
	if got, want := c.Demand[cache.LevelL1], st.L1Hits; got != want {
		t.Errorf("L1 hits: PMU %d, hierarchy %d", got, want)
	}
	if got, want := c.Demand[cache.LevelL2], st.L2Hits; got != want {
		t.Errorf("L2 hits: PMU %d, hierarchy %d", got, want)
	}
	if got, want := c.Demand[cache.LevelL3], st.L3Hits; got != want {
		t.Errorf("L3 hits: PMU %d, hierarchy %d", got, want)
	}
	if got, want := c.Demand[cache.LevelDRAM], st.DRAMLoads; got != want {
		t.Errorf("DRAM loads: PMU %d, hierarchy %d", got, want)
	}
	if got, want := c.PrefetchesIssued(), st.Prefetches; got != want {
		t.Errorf("prefetches issued: PMU %d, hierarchy %d", got, want)
	}
	if got, want := c.UsefulPrefetches(), st.PrefHits; got != want {
		t.Errorf("useful prefetches: PMU %d, hierarchy %d", got, want)
	}
	// A sequential sweep must engage the spatial units and land useful
	// prefetches, or the counters are dead. (The streamer itself rarely
	// fills here: the adjacent/pair units cover its whole window at
	// unit stride.)
	if c.PrefIssued[cache.UnitAdjacent] == 0 || c.PrefIssued[cache.UnitPair] == 0 {
		t.Errorf("spatial units issued nothing: %v", c.PrefIssued)
	}
	if acc := c.PrefetchAccuracy(); acc <= 0 || acc > 1 {
		t.Errorf("prefetch accuracy out of range: %v", acc)
	}
}

// TestStallAttributionSumsToDemandCycles checks that per-level stall
// cycles plus TLB share equal the cycles the hierarchy actually
// charged.
func TestStallAttributionSumsToDemandCycles(t *testing.T) {
	h := cache.New(cache.SandyBridge)
	p := New(Options{})
	h.AttachProbe(p)

	var charged uint64
	for a := simmem.Addr(0); a < 1<<14; a += 64 {
		charged += h.Access(0, a, 8)
	}
	c := p.Totals()
	var attributed uint64
	for lvl := cache.LevelID(0); lvl < cache.NumLevels; lvl++ {
		attributed += c.Stall[lvl]
	}
	attributed += c.StallTLB + c.StallHeater
	if attributed != charged {
		t.Fatalf("stall attribution %d != charged cycles %d", attributed, charged)
	}
}

// TestFlushReportsWastedPrefetches checks the flush path reports
// invalidations and unused prefetched lines.
func TestFlushReportsWastedPrefetches(t *testing.T) {
	h := cache.New(cache.SandyBridge)
	p := New(Options{})
	h.AttachProbe(p)
	for a := simmem.Addr(0); a < 1<<14; a += 64 {
		h.Access(0, a, 8)
	}
	h.Flush()
	c := p.Totals()
	var inval uint64
	for lvl := cache.LevelID(0); lvl < cache.NumLevels; lvl++ {
		inval += c.FlushInvalidated[lvl]
	}
	if inval == 0 {
		t.Fatal("flush invalidated nothing according to the probe")
	}
	if c.PrefWastedFlush == 0 {
		t.Error("sequential sweep then flush should waste some prefetched lines")
	}
}

// TestProfilerFoldedOutput checks the folded-stack format: sorted
// "frame;frame count" lines with the segment leaf bucketed.
func TestProfilerFoldedOutput(t *testing.T) {
	p := New(Options{SampleInterval: 100, Experiment: "exp"})
	seg := 0
	p.SetSegFunc(func() int { return seg })
	p.BeginOp(OpArrive)
	for i := 0; i < 10; i++ {
		seg = i
		p.OnDemand(0, cache.Demand{Level: cache.LevelDRAM, Cycles: 250})
	}
	p.EndOp(3000, 10, false, 0)

	folded := p.Profiler().Folded()
	if folded == "" {
		t.Fatal("no folded output")
	}
	lines := strings.Split(strings.TrimSpace(folded), "\n")
	if !sortedStrings(lines) {
		t.Error("folded lines are not sorted")
	}
	for _, ln := range lines {
		parts := strings.Split(ln, " ")
		if len(parts) != 2 {
			t.Fatalf("malformed folded line %q", ln)
		}
		if !strings.HasPrefix(parts[0], "exp;comm") {
			t.Errorf("stack %q missing exp;comm prefix", parts[0])
		}
	}
	if !strings.Contains(folded, ";arrive") {
		t.Error("no arrive frame in folded output")
	}
	if !strings.Contains(folded, ";node:") {
		t.Error("no node leaf frame in folded output")
	}
	// 10 events x 250cy + non-memory remainder 500cy = 3000cy at
	// interval 100 → exactly 30 samples.
	if got := p.Profiler().NumSamples(); got != 30 {
		t.Errorf("samples = %d, want 30", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestSegFrameBuckets(t *testing.T) {
	cases := map[int]string{
		0: "node:0", 1: "node:1", 2: "node:2-3", 3: "node:2-3",
		4: "node:4-7", 7: "node:4-7", 8: "node:8-15", 100: "node:64-127",
	}
	for in, want := range cases {
		if got := segFrame(in); got != want {
			t.Errorf("segFrame(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestSamplingZeroAlloc: with the profiler sampling every access and the
// segment frame changing under it, a demand event — and an op's frame
// switches around it — must not allocate once each stack has been seen.
func TestSamplingZeroAlloc(t *testing.T) {
	p := New(Options{SampleInterval: 50, SpanCapacity: -1, Experiment: "exp"})
	seg := 0
	p.SetSegFunc(func() int { return seg })
	op := func() {
		p.BeginOp(OpArrive)
		seg = (seg + 7) % 200
		p.OnDemand(0, cache.Demand{Level: cache.LevelL2, Cycles: 120})
		p.EndOp(500, 3, true, 0)
	}
	for i := 0; i < 400; i++ {
		op()
	}
	before := p.Profiler().NumSamples()
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Errorf("%.1f allocs per sampled op, want 0", allocs)
	}
	if p.Profiler().NumSamples() == before {
		t.Error("the measured ops took no samples")
	}
}

// TestPprofDecodes gunzips the pprof output and walks the top-level
// protobuf fields, checking the message is well-formed and carries the
// expected string table and sample count.
func TestPprofDecodes(t *testing.T) {
	p := New(Options{SampleInterval: 100, Experiment: "exp"})
	p.BeginOp(OpPost)
	p.OnDemand(0, cache.Demand{Level: cache.LevelL3, Cycles: 500})
	p.EndOp(500, 1, false, 1)

	var buf bytes.Buffer
	if err := p.Profiler().WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}

	var nSamples, nLocs, nFuncs int
	var strs []string
	for off := 0; off < len(raw); {
		tag, n := uvarint(raw[off:])
		if n <= 0 {
			t.Fatalf("bad varint at %d", off)
		}
		off += n
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			_, n := uvarint(raw[off:])
			off += n
		case 2:
			l, n := uvarint(raw[off:])
			off += n
			body := raw[off : off+int(l)]
			off += int(l)
			switch field {
			case 2:
				nSamples++
			case 4:
				nLocs++
			case 5:
				nFuncs++
			case 6:
				strs = append(strs, string(body))
			}
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
	if nSamples == 0 {
		t.Error("no samples in pprof output")
	}
	if nLocs == 0 || nLocs != nFuncs {
		t.Errorf("locations %d / functions %d", nLocs, nFuncs)
	}
	if len(strs) == 0 || strs[0] != "" {
		t.Fatalf("string table must start with empty string, got %q", strs)
	}
	want := map[string]bool{"cycles": false, "exp": false, "post": false}
	for _, s := range strs {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("string table missing %q (have %q)", s, strs)
		}
	}
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// TestSpanLinking checks post → matched-arrive linking and cancel
// unlinking.
func TestSpanLinking(t *testing.T) {
	p := New(Options{})
	post := func(req uint64, matched bool) {
		p.BeginOp(OpPost)
		p.EndOp(400, 0, matched, req)
	}
	arrive := func(req uint64, matched bool) {
		p.BeginOp(OpArrive)
		p.EndOp(600, 3, matched, req)
	}
	post(11, false) // span 1
	post(22, false) // span 2
	arrive(22, true)
	p.BeginOp(OpCancel)
	p.EndOp(400, 0, true, 11)
	arrive(11, true) // post was cancelled: no link

	spans := p.Spans().All()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[2].LinkID != spans[1].ID {
		t.Errorf("arrive span links %d, want posted span %d", spans[2].LinkID, spans[1].ID)
	}
	if spans[4].LinkID != 0 {
		t.Errorf("arrival after cancel should not link, got %d", spans[4].LinkID)
	}
	if spans[2].StartCy != 800 {
		t.Errorf("third span starts at %d, want 800", spans[2].StartCy)
	}

	var buf bytes.Buffer
	if err := p.Spans().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Errorf("JSONL lines = %d, want 5", got)
	}
}

// TestSpanRingOverwrites checks the bounded ring drops oldest spans.
func TestSpanRingOverwrites(t *testing.T) {
	p := New(Options{SpanCapacity: 4})
	for i := uint64(1); i <= 6; i++ {
		p.BeginOp(OpArrive)
		p.EndOp(100, 0, false, 0)
	}
	l := p.Spans()
	if l.Len() != 4 || l.Total() != 6 || l.Dropped() != 2 {
		t.Fatalf("len=%d total=%d dropped=%d, want 4/6/2", l.Len(), l.Total(), l.Dropped())
	}
	all := l.All()
	if all[0].ID != 3 || all[3].ID != 6 {
		t.Errorf("ring order wrong: first=%d last=%d", all[0].ID, all[3].ID)
	}
}

func TestPercentiles(t *testing.T) {
	p := New(Options{})
	for i := 1; i <= 100; i++ {
		p.BeginOp(OpArrive)
		p.EndOp(uint64(i)*10, 0, false, 0)
	}
	pc := p.Spans().Percentiles("arrive")
	if pc.N != 100 {
		t.Fatalf("N=%d", pc.N)
	}
	if pc.P50 != 500 || pc.P90 != 900 || pc.P99 != 990 || pc.Max != 1000 {
		t.Errorf("p50/p90/p99/max = %d/%d/%d/%d", pc.P50, pc.P90, pc.P99, pc.Max)
	}
}

// TestReportDeterministic locks the report to a byte-identical render
// across repeated calls, and checks the derived ratios appear.
func TestReportDeterministic(t *testing.T) {
	h := cache.New(cache.SandyBridge)
	p := New(Options{Label: "unit"})
	h.AttachProbe(p)
	p.BeginOp(OpArrive)
	for a := simmem.Addr(0); a < 1<<12; a += 64 {
		h.Access(0, a, 8)
	}
	p.EndOp(5000, 64, false, 0)

	r1, r2 := p.Report(), p.Report()
	if r1 != r2 {
		t.Fatal("report is not deterministic")
	}
	for _, want := range []string{"demand-accesses", "prefetch-coverage",
		"stall-cycles-per-match-attempt", "llc-misses-per-kilo-attempt", "'unit'"} {
		if !strings.Contains(r1, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestGroupSeparators(t *testing.T) {
	cases := map[uint64]string{0: "0", 999: "999", 1000: "1,000",
		1234567: "1,234,567", 12345678: "12,345,678"}
	for in, want := range cases {
		if got := group(in); got != want {
			t.Errorf("group(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestPublish checks the PMU's totals land in a telemetry registry with
// deterministic label sets.
func TestPublish(t *testing.T) {
	h := cache.New(cache.SandyBridge)
	p := New(Options{})
	h.AttachProbe(p)
	for a := simmem.Addr(0); a < 1<<12; a += 64 {
		h.Access(0, a, 8)
	}
	reg := telemetry.NewRegistry()
	p.Publish(reg, telemetry.Labels{"exp": "t"})
	if reg.NumMetrics() == 0 {
		t.Fatal("publish registered nothing")
	}
	c := reg.Counter("spco_perf_demand_total",
		telemetry.Labels{"exp": "t", "level": "dram"})
	if c.Value() != float64(p.Totals().Demand[cache.LevelDRAM]) {
		t.Errorf("published dram demand %v != %d", c.Value(), p.Totals().Demand[cache.LevelDRAM])
	}
}
