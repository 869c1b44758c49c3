package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"utlb/internal/parallel"
	"utlb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunAllGolden pins the full -exp all output across commits: a
// refactor that claims unchanged results must leave every byte of
// every experiment as recorded. Regenerate with
// `go test ./internal/experiments -run TestRunAllGolden -update` only
// for an intended change of results.
func TestRunAllGolden(t *testing.T) {
	opts := Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial", "fft"}, Nodes: 2}
	workload.ResetTraceStore()
	var sb strings.Builder
	if err := RunAll(opts, &sb); err != nil {
		t.Fatal(err)
	}
	got := []byte(sb.String())
	path := filepath.Join("testdata", "runall.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestRunAllGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("RunAll output drifted from %s at line %d:\ngot:  %q\nwant: %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("RunAll output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestParallelOutputByteIdentical asserts the worker-pool rewiring is
// invisible in the rendered results: every experiment produces exactly
// the same bytes at pool width 1 (sequential semantics) and width 8.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment set twice")
	}
	opts := Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial", "fft"}, Nodes: 2}
	render := func(width int) string {
		parallel.SetWorkers(width)
		defer parallel.SetWorkers(0)
		workload.ResetTraceStore()
		var sb strings.Builder
		if err := RunAll(opts, &sb); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("parallel output diverged from sequential (lens %d vs %d)", len(seq), len(par))
		for i := 0; i < len(seq) && i < len(par); i++ {
			if seq[i] != par[i] {
				lo := i - 60
				if lo < 0 {
					lo = 0
				}
				t.Errorf("first difference at byte %d:\nseq: %q\npar: %q", i, seq[lo:i+20], par[lo:i+20])
				break
			}
		}
	}
	// The memoised trace store must not change results either: render
	// again without resetting it.
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)
	var sb strings.Builder
	if err := RunAll(opts, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != seq {
		t.Error("warm trace store changed experiment output")
	}
}

// TestSingleExperimentByteIdentical is the cheap always-on variant:
// one table, sequential vs parallel.
func TestSingleExperimentByteIdentical(t *testing.T) {
	opts := Options{Scale: 0.03, Seed: 7, Apps: []string{"water-spatial"}, Nodes: 2}
	render := func(width int) string {
		parallel.SetWorkers(width)
		defer parallel.SetWorkers(0)
		workload.ResetTraceStore()
		var sb strings.Builder
		if err := Run("table4", opts, &sb); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return sb.String()
	}
	if seq, par := render(1), render(8); seq != par {
		t.Errorf("table4 diverged:\n--- width 1 ---\n%s\n--- width 8 ---\n%s", seq, par)
	}
}
