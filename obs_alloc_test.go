package utlb_test

// Hot-path allocation budget suite. Each test measures one steady-state
// operation with testing.Benchmark and fails when it allocates past an
// exact budget. The budgets are deliberately tight: every reusable
// structure on these paths (cache storage, classifier slab, per-process
// library scratch, the dense key table, the memoised trace store) is
// supposed to survive across operations, so a regression here means a
// reuse path quietly fell back to allocating. benchjson's -compare gate
// enforces the same SimRun budget in CI from BENCH_pr6.json.

import (
	"testing"

	"utlb"
	"utlb/internal/telemetry"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/xlate"
)

// measureAllocs runs op in a benchmark and reports its allocs/op.
func measureAllocs(f func(b *testing.B)) int64 {
	return testing.Benchmark(f).AllocsPerOp()
}

// TestSimulateRunAllocBudget is the headline budget: one full
// trace-driven UTLB run through reused scratch. The seed repo spent
// 1695 allocs/op here; the scratch path's budget is 80% below that
// with room for toolchain drift (BENCH_pr6.json records the exact
// measured value and benchjson gates on it).
func TestSimulateRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	tr, err := utlb.GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 1024
	scr := utlb.NewSimScratch()
	if _, err := utlb.SimulateWith(tr, cfg, scr); err != nil { // warm the scratch
		t.Fatal(err)
	}
	got := measureAllocs(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := utlb.SimulateWith(tr, cfg, scr); err != nil {
				b.Fatal(err)
			}
		}
	})
	const budget = 250 // measured 175; seed repo was 1695
	if got > budget {
		t.Errorf("SimulateWith allocates %d/op with warm scratch, budget %d", got, budget)
	} else {
		t.Logf("SimulateWith: %d allocs/op (budget %d, seed repo 1695)", got, budget)
	}
}

// TestSimulateDisabledRecorderAllocBudget keeps the observability
// zero-overhead guarantee: attaching no recorder must not change the
// allocation profile — every record site is a single nil compare when
// disabled. The pooled Simulate path gets a slightly looser budget
// than the scratch path because a GC can drain the scratch pool
// mid-measurement and force one cold rebuild.
func TestSimulateDisabledRecorderAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	tr, err := utlb.GenerateTrace("water-spatial", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 1024
	got := measureAllocs(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := utlb.Simulate(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	const budget = 700 // pooled steady state measures ~175; headroom for pool drain
	if got > budget {
		t.Errorf("disabled-recorder Simulate allocates %d/op, budget %d: instrumentation or scratch reuse leaked onto the hot path", got, budget)
	} else {
		t.Logf("disabled-recorder Simulate: %d allocs/op (budget %d)", got, budget)
	}
}

// TestTLBCacheLookupFillAllocBudget pins the per-operation cache paths
// at zero: lookup hits, lookup misses, and insert-with-eviction on a
// full cache all work in preallocated storage (the SoA line array and
// the dense key table, both sized at construction).
func TestTLBCacheLookupFillAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	c := tlbcache.New(tlbcache.Config{Entries: 1024, Ways: 2, IndexOffset: true})
	// Fill past capacity so inserts below evict (the steady state of a
	// full cache) and the dense table has seen its growth.
	for v := units.VPN(0); v < 4096; v++ {
		c.Insert(tlbcache.Key{PID: 1, VPN: v}, units.PFN(v))
	}
	lookups := measureAllocs(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Lookup(tlbcache.Key{PID: 1, VPN: units.VPN(i % 8192)})
		}
	})
	if lookups > 0 {
		t.Errorf("tlbcache.Lookup allocates %d/op, budget 0", lookups)
	}
	inserts := measureAllocs(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Insert(tlbcache.Key{PID: 1, VPN: units.VPN(i % 8192)}, units.PFN(i))
		}
	})
	if inserts > 0 {
		t.Errorf("tlbcache.Insert allocates %d/op on a full cache, budget 0", inserts)
	}
	t.Logf("tlbcache: lookup %d allocs/op, insert-with-evict %d allocs/op", lookups, inserts)
}

// TestXlateLookupAllocBudget pins the translation service's single-key
// lookup at zero allocations in all three telemetry states:
//
//   - telemetry disabled (nil sink): the baseline hot path, where the
//     entire telemetry surface must cost one pointer compare;
//   - telemetry enabled, request not sampled: lock-free atomic counter
//     and histogram updates only;
//   - telemetry enabled with sampling off entirely (SampleEvery 0);
//   - telemetry enabled, every request sampled but no chain retained
//     (MaxTraces 0): a chain nobody keeps must not be built.
//
// Only sampled requests whose chain is kept may allocate (they build an
// event chain), which the last case bounds separately.
func TestXlateLookupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	newService := func() *xlate.Service {
		s, err := xlate.New(xlate.Config{Shards: 4, Entries: 256, Ways: 4})
		if err != nil {
			t.Fatal(err)
		}
		for v := units.VPN(0); v < 512; v++ {
			s.Insert(xlate.Key{PID: 1, VPN: v}, units.PFN(v))
		}
		return s
	}
	lookupAllocs := func(s *xlate.Service) int64 {
		return measureAllocs(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Lookup(xlate.Key{PID: 1, VPN: units.VPN(i % 1024)})
			}
		})
	}
	// A wide window and a tiny manual-clock tick keep the ring from
	// rotating mid-measurement; rotation is rare and amortised, not part
	// of the per-op budget.
	newSink := func(sampleEvery int64, maxTraces int) *telemetry.Sink {
		clk := telemetry.NewManualClock(0)
		clk.SetTick(1)
		sink, err := telemetry.New(telemetry.Config{
			Shards: 4, WindowNs: 1 << 62, Windows: 4,
			SampleEvery: sampleEvery, MaxTraces: maxTraces,
			SLOTargetNs: 1_000_000, SLOBudget: 0.01,
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		return sink
	}

	disabled := newService()
	if got := lookupAllocs(disabled); got > 0 {
		t.Errorf("telemetry-disabled Lookup allocates %d/op, budget 0", got)
	}

	unsampled := newService()
	if err := unsampled.AttachTelemetry(newSink(1<<40, 8)); err != nil {
		t.Fatal(err)
	}
	if got := lookupAllocs(unsampled); got > 0 {
		t.Errorf("telemetry-enabled unsampled Lookup allocates %d/op, budget 0", got)
	}

	noSampling := newService()
	if err := noSampling.AttachTelemetry(newSink(0, 8)); err != nil {
		t.Fatal(err)
	}
	if got := lookupAllocs(noSampling); got > 0 {
		t.Errorf("telemetry-enabled SampleEvery=0 Lookup allocates %d/op, budget 0", got)
	}

	noTraces := newService()
	if err := noTraces.AttachTelemetry(newSink(1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := lookupAllocs(noTraces); got > 0 {
		t.Errorf("telemetry-enabled MaxTraces=0 Lookup allocates %d/op, budget 0", got)
	}

	// Sampling every request is the worst case: each lookup builds and
	// retains a trace chain. The chain is one Trace and one small event
	// slice; the budget leaves headroom but catches a per-key or
	// per-event allocation creeping in.
	sampled := newService()
	if err := sampled.AttachTelemetry(newSink(1, 8)); err != nil {
		t.Fatal(err)
	}
	const sampledBudget = 8
	if got := lookupAllocs(sampled); got > sampledBudget {
		t.Errorf("always-sampled Lookup allocates %d/op, budget %d", got, sampledBudget)
	} else {
		t.Logf("always-sampled Lookup: %d allocs/op (budget %d)", got, sampledBudget)
	}
}

// TestGenerateCachedAllocBudget pins the memoised trace path at zero:
// after the first generation, GenerateCached is a read-locked typed-map
// hit with no interface boxing of the key and no per-call entry.
func TestGenerateCachedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	spec, err := utlb.WorkloadByName("water-spatial")
	if err != nil {
		t.Fatal(err)
	}
	cfg := utlb.WorkloadConfig{Node: 0, FirstPID: 1, Seed: 424242, Scale: 0.05}
	warm := spec.GenerateCached(cfg)
	got := measureAllocs(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr := spec.GenerateCached(cfg); len(tr) != len(warm) {
				b.Fatal("cache miss on warm key")
			}
		}
	})
	if got > 0 {
		t.Errorf("GenerateCached allocates %d/op on the hit path, budget 0", got)
	} else {
		t.Logf("GenerateCached hit path: %d allocs/op", got)
	}
}
