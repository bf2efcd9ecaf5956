package daemon

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spco/internal/ctrace"
	"spco/internal/mpi"
)

// TestDebugTrace drives a live daemon with traced load and checks the
// flight-recorder surfaces: /debug/trace returns a non-empty,
// well-formed Chrome dump, /status carries build info + recorder
// stats, /metrics carries spco_build_info, and the shutdown TraceOut
// flush writes the same dump to disk.
func TestDebugTrace(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "final_trace.json")
	srv, _, errc := testServer(t, func(c *Config) {
		c.Trace = ctrace.New(ctrace.Options{KeepAll: true})
		c.TraceOut = traceOut
	})

	res, err := RunLoad(LoadConfig{Addr: srv.Addr(), Conns: 2, Messages: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched() != 300 {
		t.Fatalf("matched %d pairs, want 300", res.Matched())
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.AdminAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, dump := get("/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace: %d", code)
	}
	rep, err := ctrace.CheckChromeJSON(strings.NewReader(dump))
	if err != nil {
		t.Fatalf("/debug/trace dump malformed: %v", err)
	}
	if rep.Traces == 0 || rep.Spans == 0 {
		t.Fatalf("/debug/trace dump empty: %+v", rep)
	}
	// Every pair shares one trace across its arrive and post, so the
	// recorder must hold one finished trace per pair.
	if rep.Traces != 300 {
		t.Errorf("dump has %d traces, want 300 (one per pair)", rep.Traces)
	}

	code, status := get("/status")
	if code != 200 {
		t.Fatalf("/status: %d", code)
	}
	for _, want := range []string{`"version"`, `"go_version"`, `"trace"`, `"retained"`} {
		if !strings.Contains(status, want) {
			t.Errorf("/status missing %s in %s", want, status)
		}
	}

	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(metrics, "spco_build_info") {
		t.Error("/metrics missing spco_build_info")
	}

	stopAndWait(t, srv, errc)

	flushed, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("TraceOut flush missing: %v", err)
	}
	frep, err := ctrace.CheckChromeJSON(strings.NewReader(string(flushed)))
	if err != nil {
		t.Fatalf("TraceOut dump malformed: %v", err)
	}
	if frep.Traces != 300 {
		t.Errorf("flushed dump has %d traces, want 300", frep.Traces)
	}
}

// TestDefaultFlightRecorder: a daemon built without an explicit
// recorder still serves a valid (possibly sparse) /debug/trace dump —
// the flight recorder is always on.
func TestDefaultFlightRecorder(t *testing.T) {
	srv, _, errc := testServer(t, nil)
	if _, err := RunLoad(LoadConfig{Addr: srv.Addr(), Conns: 1, Messages: 50}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.AdminAddr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rep, err := ctrace.CheckChromeJSON(resp.Body)
	if err != nil {
		t.Fatalf("default /debug/trace malformed: %v", err)
	}
	// Tail retention keeps everything until the latency window warms up
	// (64 finishes), so 50 pairs must all be retained.
	if rep.Traces == 0 {
		t.Fatal("default flight recorder retained nothing")
	}
	stopAndWait(t, srv, errc)
}

// TestTracedPairSpans pins what a traced op records, which guarding
// the untraced path must not change: the trace's root span is named
// "msg tag=N", the engine spans are "arrive" with its outcome and
// "post" with matched=true|false, and the matching op finishes the
// trace with status "matched". An untraced pair records nothing.
func TestTracedPairSpans(t *testing.T) {
	srv, _, errc := testServer(t, func(c *Config) {
		c.Trace = ctrace.New(ctrace.Options{KeepAll: true})
	})
	defer stopAndWait(t, srv, errc)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	must := func(_ mpi.WireReply, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cl.PostTraced(2, 41, 1, 7, 900)) // post first: the arrive matches
	must(cl.ArriveTraced(2, 41, 1, 9, 900))
	must(cl.ArriveTraced(3, 42, 1, 11, 901)) // arrive first: the post matches
	must(cl.PostTraced(3, 42, 1, 12, 901))
	must(cl.Post(4, 43, 1, 13)) // untraced
	must(cl.Arrive(4, 43, 1, 14))

	type span struct{ name, args string }
	want := map[uint64][]span{
		900: {{"post", "matched=false"}, {"arrive", "outcome=matched"}, {"msg tag=41", "status=matched"}},
		901: {{"arrive", "outcome=queued"}, {"post", "matched=true"}, {"msg tag=42", "status=matched"}},
	}
	traces := srv.tr.Retained()
	if len(traces) != len(want) {
		t.Fatalf("recorder retained %d traces, want %d (the untraced pair must leave none)", len(traces), len(want))
	}
	for _, tr := range traces {
		var got []span
		for _, ev := range tr.Events {
			var args []string
			for _, kv := range ev.Args {
				args = append(args, kv.K+"="+kv.V)
			}
			got = append(got, span{ev.Name, strings.Join(args, ",")})
		}
		if fmt.Sprint(got) != fmt.Sprint(want[tr.ID]) {
			t.Errorf("trace %d recorded %v, want %v", tr.ID, got, want[tr.ID])
		}
		if tr.Status != "matched" {
			t.Errorf("trace %d finished %q, want matched", tr.ID, tr.Status)
		}
	}
}
