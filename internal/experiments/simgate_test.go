package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// simGateIDs are the experiments whose -quick output depends on nothing
// but the simulator: no mpi.World goroutine ranks, no native timing. In
// the order `spco-bench -exp` was given them when the golden was made.
var simGateIDs = []string{
	"fig1a", "fig1b", "fig1c", "fig2",
	"fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
	"fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig7c",
	"hcmicro", "hwoffload", "netcache", "umqdepth", "chaos",
}

// TestSimGateQuickGolden holds the modeled results of the
// scheduler-independent experiments byte-for-byte against
// testdata/simgate_quick.golden: the stdout of
//
//	spco-bench -quick -exp fig1a,...,chaos
//
// at the commit before the cache model's hit fast path, with the
// "(regenerated in 1.5s)" lines masked. A host-speed change to
// internal/cache or internal/matchlist must not move a digit here.
func TestSimGateQuickGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs 21 experiments (~25 s, far longer under -race)")
	}
	want, err := os.ReadFile("testdata/simgate_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range simGateIDs {
		s, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		fmt.Fprintf(&got, "### %s — %s\n%s\n(regenerated in …)\n\n", s.ID, s.Title, s.Run(Options{Quick: true}).Render())
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, the golden %d", len(gl), len(wl))
}
