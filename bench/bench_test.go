package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"spco/internal/mpi"
)

// TestModelIsFIFOPerEnvelope pins the correctness oracle down on a
// hand-written sequence: counterparts pair off oldest first within an
// envelope, and other envelopes do not interfere.
func TestModelIsFIFOPerEnvelope(t *testing.T) {
	post := func(rank, tag int32, h uint64) mpi.WireOp {
		return mpi.WireOp{Kind: mpi.WirePost, Rank: rank, Tag: tag, Ctx: benchCtx, Handle: h}
	}
	arrive := func(rank, tag int32, h uint64) mpi.WireOp {
		return mpi.WireOp{Kind: mpi.WireArrive, Rank: rank, Tag: tag, Ctx: benchCtx, Handle: h}
	}
	steps := []struct {
		op      mpi.WireOp
		outcome byte
		handle  uint64
	}{
		{post(1, 2, 10), 0, 0},
		{post(1, 2, 11), 0, 0},
		{post(3, 0, 12), 0, 0},
		{arrive(1, 2, 20), mpi.WireOutMatched, 10},
		{arrive(1, 2, 21), mpi.WireOutMatched, 11},
		{arrive(1, 2, 22), mpi.WireOutQueued, 0},
		{arrive(3, 0, 23), mpi.WireOutMatched, 12},
		{post(1, 2, 13), 1, 22},
	}
	var m model
	for i, s := range steps {
		if outcome, handle := m.expect(s.op); outcome != s.outcome || handle != s.handle {
			t.Errorf("step %d: got outcome %d handle %d, want %d/%d", i, outcome, handle, s.outcome, s.handle)
		}
	}
}

// TestSameSeedSameInputs: the seed fixes the op stream and, through it,
// the simulated result bit for bit; the bare engine replay allocates
// nothing in steady state.
func TestSameSeedSameInputs(t *testing.T) {
	const windows = 200
	ctx := context.Background()
	for _, w := range workloads {
		if a, b := streamHash(w, 7, windows), streamHash(w, 7, windows); a != b {
			t.Errorf("%s: seed 7 hashed to %x then %x", w.name, a, b)
		}
		if a, b := streamHash(w, 7, windows), streamHash(w, 8, windows); a == b {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w.name)
		}
		a := replayEngine(ctx, w, 7, engineConfig(nil, nil), windows, nil)
		b := replayEngine(ctx, w, 7, engineConfig(nil, nil), windows, nil)
		if a.pairs != uint64(windows*w.k) || a.cycles == 0 || a.cycles != b.cycles {
			t.Errorf("%s: replays of seed 7 modeled %d and %d cycles over %d pairs", w.name, a.cycles, b.cycles, a.pairs)
		}
		if a.mismatch+b.mismatch > 0 {
			t.Errorf("%s: %d replay results differ from the model", w.name, a.mismatch+b.mismatch)
		}
		if perPair := float64(a.mallocs) / float64(a.pairs); perPair >= 0.01 {
			t.Errorf("%s: bare engine replay allocates %.3f objects per pair", w.name, perPair)
		}
	}
}

// TestWorkloadsRunQuick runs every workload traced under the -quick
// boxes: it must verify, leave no journal directory behind, write a
// loadable trace, and emit exactly the metrics main.go declares.
func TestWorkloadsRunQuick(t *testing.T) {
	journals := func() []string {
		m, _ := filepath.Glob("/dev/shm/spco-bench-journal-*")
		local, _ := filepath.Glob(".bench-journal-*")
		return append(m, local...)
	}
	before := journals()
	for _, w := range workloads {
		traceOut := filepath.Join(t.TempDir(), "trace.json")
		res, err := runWorkload(context.Background(), w, 1, runDurations(0, true, true), true, traceOut)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d pairs failed: %v", w.name, res.failed, res.attempted, res.problems)
		}
		if got, want := keys(res.e2e), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, want)
		}
		if got, want := keys(res.layers), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, want)
		}
		if on := res.layers["recov.append_ns_per_record"] > 0; on != w.journal {
			t.Errorf("%s: recov did work = %v, want %v", w.name, on, w.journal)
		}

		raw, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w.name, err)
		}
		seen := map[string]bool{}
		for _, ev := range trace.TraceEvents {
			if ev.Ph == "X" {
				seen[ev.Name] = true
			}
		}
		for _, name := range spanNames {
			if !seen[name] && (name != "recov.append" || w.journal) {
				t.Errorf("%s: trace has no %q span", w.name, name)
			}
		}
	}
	if after := journals(); !reflect.DeepEqual(before, after) {
		t.Errorf("journal directories left behind: before %v, after %v", before, after)
	}
}

// TestBenchmarkJSONParity: BENCHMARK.json and the program name the same
// workloads and metrics, both ways, with the same units, directions
// and bounds.
func TestBenchmarkJSONParity(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound || !nameRE.MatchString(m.name) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd)
	check("per-layer", doc.PerLayer, perLayer)
}

// TestAgreementAppliesBounds: two sets agree only while every metric
// stays within its own bound, in either direction.
func TestAgreementAppliesBounds(t *testing.T) {
	set := func(lat, cycles float64) []result {
		e2e := map[string]float64{}
		for _, m := range endToEnd {
			e2e[m.name] = 1
		}
		e2e["window_lat_floor_us"], e2e["sim_cycles_per_pair"] = lat, cycles
		return []result{{workload: "w", e2e: e2e}}
	}
	for _, c := range []struct {
		lat, cycles float64
		want        bool
	}{
		{100, 1000, true},
		{109, 1000, true},
		{91, 1000.9, true},
		{111, 1000, false},
		{89, 1000, false},
		{100, 1002, false},
		{100, 998, false},
	} {
		if got := printAgreement(set(100, 1000), set(c.lat, c.cycles)); got != c.want {
			t.Errorf("lat %v cycles %v: agree = %v, want %v", c.lat, c.cycles, got, c.want)
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}
