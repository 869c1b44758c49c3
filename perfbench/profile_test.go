package main

import "testing"

func TestAttributeStack(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost repo frame wins", []string{
			"utlb/internal/tlbcache.(*Cache).Lookup",
			"utlb/internal/core.(*Translator).Translate",
			"utlb/internal/sim.RunWith",
		}, "tlbcache"},
		{"runtime helper goes to its caller", []string{
			"runtime.mapaccess2_fast64",
			"utlb/internal/vm.(*Table).Lookup",
			"utlb/internal/core.(*Driver).Pin",
			"utlb/internal/sim.RunWith",
		}, "vm"},
		{"malloc inside an inlined closure", []string{
			"runtime.mallocgc",
			"runtime.growslice",
			"utlb/internal/sim.RunWith.func1",
			"utlb/internal/sim.RunWith",
		}, "sim"},
		{"classifier split from sim", []string{
			"runtime.mapaccess1",
			"utlb/internal/sim.(*classifier).touch",
			"utlb/internal/sim.(*classifier).classify",
			"utlb/internal/sim.RunWith",
		}, "sim.classifier"},
		{"sub-package outside the layer list", []string{
			"utlb/internal/obs/analyze.(*Digest).Add",
			"utlb/internal/serve.(*Server).handleAnalyze",
		}, "other"},
		{"handler encode is serve", []string{
			"encoding/json.(*encodeState).marshal",
			"utlb/internal/serve.writeJSON",
			"utlb/internal/serve.(*Server).handleXlateLookup",
			"net/http.HandlerFunc.ServeHTTP",
			"net/http.(*conn).serve",
		}, "serve"},
		{"server connection loop is transport", []string{
			"syscall.Syscall",
			"net.(*netFD).Read",
			"bufio.(*Reader).fill",
			"net/http.(*conn).readRequest",
			"net/http.(*conn).serve",
		}, "transport"},
		{"client socket work is transport", []string{
			"internal/poll.(*FD).Write",
			"net.(*conn).Write",
			"net/http.(*persistConn).writeLoop",
			"main.(*client).do",
			"utlb/internal/parallel.Map[...].func1",
		}, "transport"},
		{"client reply checking is bench", []string{
			"encoding/json.Unmarshal",
			"main.(*client).lookup",
			"main.(*client).run",
			"utlb/internal/parallel.Map[...].func1",
		}, "bench"},
		{"garbage collector is runtime", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, "runtime"},
		{"empty stack is runtime", nil, "runtime"},
	}
	for _, c := range cases {
		if got := attributeStack(c.stack); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func TestIsSetupStack(t *testing.T) {
	if !isSetupStack([]string{"runtime.memclrNoHeapPointers", "utlb/internal/phys.NewMemory", "utlb/internal/sim.RunWith"}) {
		t.Error("phys.NewMemory not counted as run setup")
	}
	if !isSetupStack([]string{"runtime.mapassign", "utlb/internal/trace.Trace.Footprint", "utlb/internal/sim.RunWith"}) {
		t.Error("trace.Trace.Footprint not counted as run setup")
	}
	if isSetupStack([]string{"utlb/internal/tlbcache.(*Cache).Lookup", "utlb/internal/sim.RunWith"}) {
		t.Error("a per-reference frame counted as run setup")
	}
}

func TestGenerateOnStack(t *testing.T) {
	gen := []string{"runtime.mallocgc", "utlb/internal/workload.(*Spec).Generate.func2", "utlb/internal/workload.(*Spec).GenerateCached", "utlb/internal/experiments.Run"}
	if !onStack(gen, genFuncs) {
		t.Error("a closure inside Generate not counted as trace generation")
	}
	if onStack([]string{"utlb/internal/workload.(*Spec).GenerateCached", "utlb/internal/experiments.Run"}, genFuncs) {
		t.Error("GenerateCached alone counted as trace generation")
	}
}

// TestProfileRoundTrip profiles real work and checks that attribution
// decodes the profile and partitions every sample.
func TestProfileRoundTrip(t *testing.T) {
	raw := profileOf(t, func() {
		b := newBulk(1)
		var tl tally
		if err := b.setup(&tl, nil); err != nil {
			t.Fatal(err)
		}
	})
	a, err := attributeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a.samples == 0 {
		t.Skip("no CPU samples collected")
	}
	if a.sumLayers() != a.totalNS {
		t.Errorf("layers sum to %d ns, profile holds %d ns", a.sumLayers(), a.totalNS)
	}
	var repo int64
	for l, ns := range a.layerNS {
		if l != "runtime" && l != "bench" {
			repo += ns
		}
	}
	if repo == 0 {
		t.Errorf("no sample attributed to a repo layer: %v", a.layerNS)
	}
}
