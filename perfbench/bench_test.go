package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"utlb/internal/experiments"
	"utlb/internal/parallel"
)

// profileOf CPU-profiles fn, repeated for at least 300 ms.
func profileOf(t *testing.T, fn func()) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		fn()
	}
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// TestSuiteDigestWidthInvariant checks that the suite's output is the
// same at pool width 1 and 2, and byte-identical to experiments.RunAll
// (what `utlbsim -exp all` prints).
func TestSuiteDigestWidthInvariant(t *testing.T) {
	s := newSuite(7, 0.02)
	d1, err := s.digestAt(1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.digestAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("suite digest differs between pool widths 1 and 2")
	}
	var all bytes.Buffer
	parallel.SetWorkers(2)
	if err := experiments.RunAll(s.opts, &all); err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(all.Bytes()) != d1 {
		t.Fatalf("suite digest differs from experiments.RunAll output")
	}
}

// TestBulkPassesRepeat checks that two bulk passes report identical
// counters and simulated times, and that every check holds.
func TestBulkPassesRepeat(t *testing.T) {
	b := newBulk(3)
	var tl tally
	if err := b.setup(&tl, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.pass(&tl, nil); err != nil {
			t.Fatal(err)
		}
	}
	// pass compares each pass against the first, so a differing
	// second pass is a failed check.
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("bulk: %d of %d checks failed", tl.failed, tl.attempted)
	}
}

// TestRequestSequenceSeeded checks that the load clients' key
// sequences are a function of the seed: the same seed repeats them, a
// different seed (a held-out one) and a different client change them.
func TestRequestSequenceSeeded(t *testing.T) {
	for _, fill := range []bool{false, true} {
		a := clientPages(11, fill, 0, 4096)
		if !slices.Equal(a, clientPages(11, fill, 0, 4096)) {
			t.Errorf("fill=%v: same seed gave different sequences", fill)
		}
		if slices.Equal(a, clientPages(12, fill, 0, 4096)) {
			t.Errorf("fill=%v: seeds 11 and 12 gave the same sequence", fill)
		}
		if slices.Equal(a, clientPages(11, fill, 1, 4096)) {
			t.Errorf("fill=%v: clients 0 and 1 share a sequence", fill)
		}
	}
}

// TestXlateSmoke runs a short xlate-fill pass end to end over loopback.
func TestXlateSmoke(t *testing.T) {
	x := newXlate(5, true)
	defer x.close()
	var tl tally
	if err := x.setup(&tl, nil); err != nil {
		t.Fatal(err)
	}
	ps, err := x.pass(&tl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.reqs) != width*xlateRounds || x.sent != width*xlateRounds*xlateBatch {
		t.Errorf("pass timed %d rounds and sent %d keys, want %d and %d", len(ps.reqs), x.sent, width*xlateRounds, width*xlateRounds*xlateBatch)
	}
	if tl.failed != 0 {
		t.Fatalf("%d of %d checks failed", tl.failed, tl.attempted)
	}
	if n := x.conns.Load(); n > width {
		t.Errorf("%d connections for %d clients", n, width)
	}
}

// TestRefTimesScale checks host-speed scaling: each value is scaled by
// the mean of the kernel times taken just before and just after it.
func TestRefTimesScale(t *testing.T) {
	n := refNominal.Seconds()
	refs := refTimes{1, 3, 1}
	got := refs.scale([]float64{2, 4})
	if want := []float64{n, 2 * n}; !slices.Equal(got, want) {
		t.Fatalf("scale = %v, want %v", got, want)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal
// to the definition in spec.go.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: bash perfbench/run.sh --spec > BENCHMARK.json")
	}
}
