package telemetry

import (
	"strings"
	"sync"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
)

// testConfig: 4 shards, 1000 ns windows, ring of 4, sample 1-in-4,
// SLO target 100 ns with a 10% budget. Small numbers so tests can
// assert exact window arithmetic.
func testConfig() Config {
	return Config{
		Shards:      4,
		WindowNs:    1000,
		Windows:     4,
		SampleEvery: 4,
		MaxTraces:   3,
		SLOTargetNs: 100,
		SLOBudget:   0.1,
	}
}

func newTestSink(t *testing.T, start int64) (*Sink, *ManualClock) {
	t.Helper()
	clk := NewManualClock(start)
	s, err := New(testConfig(), clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, clk
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"shards", func(c *Config) { c.Shards = 0 }},
		{"window", func(c *Config) { c.WindowNs = 0 }},
		{"ring", func(c *Config) { c.Windows = 1 }},
		{"sample", func(c *Config) { c.SampleEvery = -1 }},
		{"traces", func(c *Config) { c.MaxTraces = -1 }},
		{"target", func(c *Config) { c.SLOTargetNs = 0 }},
		{"budget-zero", func(c *Config) { c.SLOBudget = 0 }},
		{"budget-over", func(c *Config) { c.SLOBudget = 1.5 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config %+v", tc.name, cfg)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("Validate rejected good config: %v", err)
	}
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Errorf("Validate rejected DefaultConfig: %v", err)
	}
	if _, err := New(testConfig(), nil); err == nil {
		t.Error("New accepted a nil clock")
	}
}

func TestWindowRotation(t *testing.T) {
	s, clk := newTestSink(t, 0)

	// Window 0: 10 lookups (7 hits) on shard 1, one insert on shard 2.
	s.RecordLookups(1, 10, 7, 50, clk.Now())
	s.RecordInserts(2, 1, 0, 30, clk.Now())

	// Cross into window 1 and record there.
	clk.Set(1500)
	s.RecordLookups(0, 4, 4, 20, clk.Now())

	// Cross into window 2; read the series.
	clk.Set(2100)
	sr := s.SeriesReport(clk.Now())
	if sr.WindowNs != 1000 || sr.Windows != 4 {
		t.Fatalf("series geometry = %d/%d, want 1000/4", sr.WindowNs, sr.Windows)
	}
	if len(sr.Points) != 3 {
		t.Fatalf("got %d points, want 3 (win0, win1, open win2): %+v", len(sr.Points), sr.Points)
	}
	w0, w1, open := sr.Points[0], sr.Points[1], sr.Points[2]
	if w0.Window != 0 || w0.Open {
		t.Fatalf("point 0 = %+v, want closed window 0", w0)
	}
	if w0.Lookups != 10 || w0.Hits != 7 || w0.Misses != 3 || w0.Inserts != 1 || w0.Ops != 2 || w0.SumNs != 80 {
		t.Errorf("window 0 totals wrong: %+v", w0)
	}
	if w0.LookupsPerSec != 10*1e9/1000 {
		t.Errorf("window 0 rate = %g, want %g", w0.LookupsPerSec, 10*1e9/1000.0)
	}
	if w1.Window != 1 || w1.Lookups != 4 || w1.Hits != 4 || w1.Ops != 1 {
		t.Errorf("window 1 totals wrong: %+v", w1)
	}
	if open.Window != 2 || !open.Open || open.Lookups != 0 {
		t.Errorf("open point wrong: %+v", open)
	}
}

func TestOpenWindowDeltas(t *testing.T) {
	s, clk := newTestSink(t, 0)
	s.RecordLookups(0, 5, 5, 10, clk.Now())
	clk.Set(400)
	sr := s.SeriesReport(clk.Now())
	if len(sr.Points) != 1 {
		t.Fatalf("got %d points, want just the open window", len(sr.Points))
	}
	p := sr.Points[0]
	if !p.Open || p.Lookups != 5 || p.Ops != 1 {
		t.Fatalf("open point = %+v, want 5 lookups in the open window", p)
	}
	// Rate over the 400 ns elapsed, not the full window width.
	if p.LookupsPerSec != 5*1e9/400 {
		t.Errorf("open rate = %g, want %g", p.LookupsPerSec, 5*1e9/400.0)
	}
}

func TestIdleWindowsZeroed(t *testing.T) {
	s, clk := newTestSink(t, 0)
	s.RecordLookups(0, 1, 1, 10, clk.Now())
	// Jump two windows ahead: window 0 closes with the lookup, windows
	// 1 and 2 were idle and must appear as explicit zeros.
	clk.Set(3200)
	sr := s.SeriesReport(clk.Now())
	if len(sr.Points) != 4 {
		t.Fatalf("got %d points, want 4 (w0..w2 closed + open w3)", len(sr.Points))
	}
	if sr.Points[0].Lookups != 1 {
		t.Errorf("window 0 = %+v, want the lookup", sr.Points[0])
	}
	for _, p := range sr.Points[1:3] {
		if p.Lookups != 0 || p.Ops != 0 || p.Open {
			t.Errorf("idle window %d not zeroed: %+v", p.Window, p)
		}
	}
}

func TestRingWrap(t *testing.T) {
	s, clk := newTestSink(t, 0)
	// Record one lookup per window for 7 windows; ring holds 4, so only
	// windows 3..6 survive.
	for w := int64(0); w < 7; w++ {
		clk.Set(w*1000 + 100)
		s.RecordLookups(0, w+1, 0, 10, clk.Now())
	}
	clk.Set(7100)
	sr := s.SeriesReport(clk.Now())
	if len(sr.Points) != 5 {
		t.Fatalf("got %d points, want 4 closed + open", len(sr.Points))
	}
	for i, p := range sr.Points[:4] {
		wantWin := int64(3 + i)
		if p.Window != wantWin || p.Lookups != wantWin+1 {
			t.Errorf("point %d = window %d lookups %d, want window %d lookups %d",
				i, p.Window, p.Lookups, wantWin, wantWin+1)
		}
	}
}

// TestBackwardsClockClamped is the regression test for the monotonic
// -clock assumption: a wall clock stepping backwards past a window
// boundary (NTP correction, VM migration) must be treated as
// same-window. The ring must never move backwards, records during the
// stepped-back interval are attributed to the open window, and the
// series stays coherent once the clock recovers.
func TestBackwardsClockClamped(t *testing.T) {
	s, clk := newTestSink(t, 0)

	// Window 0: 3 lookups. Then jump to window 2 and record 5 more,
	// folding window 0 closed and zeroing idle window 1.
	s.RecordLookups(0, 3, 3, 10, clk.Now())
	clk.Set(2500)
	s.RecordLookups(0, 5, 5, 10, clk.Now())

	// The clock steps backwards into window 1 territory. These records
	// must clamp into the open window (2), not rewind the ring.
	clk.Set(1100)
	s.RecordLookups(0, 7, 7, 10, clk.Now())
	s.RecordInserts(1, 2, 0, 10, clk.Now())

	// A read with the backwards now must not corrupt the ring either
	// (report paths call foldLocked directly).
	sr := s.SeriesReport(clk.Now())
	for _, p := range sr.Points[:len(sr.Points)-1] {
		if p.Window >= 2 {
			t.Fatalf("window %d closed by a backwards clock: %+v", p.Window, p)
		}
	}

	// Clock recovers past window 2: the fold must attribute BOTH the
	// pre-step and stepped-back records to window 2.
	clk.Set(3200)
	sr = s.SeriesReport(clk.Now())
	if len(sr.Points) != 4 {
		t.Fatalf("got %d points, want w0..w2 closed + open w3: %+v", len(sr.Points), sr.Points)
	}
	w0, w1, w2, open := sr.Points[0], sr.Points[1], sr.Points[2], sr.Points[3]
	if w0.Window != 0 || w0.Lookups != 3 {
		t.Errorf("window 0 = %+v, want 3 lookups", w0)
	}
	if w1.Window != 1 || w1.Lookups != 0 || w1.Inserts != 0 {
		t.Errorf("idle window 1 not zeroed: %+v", w1)
	}
	if w2.Window != 2 || w2.Lookups != 12 || w2.Inserts != 2 {
		t.Errorf("window 2 = %+v, want 12 lookups + 2 inserts (5 pre-step + 7 clamped)", w2)
	}
	if open.Window != 3 || !open.Open || open.Lookups != 0 {
		t.Errorf("open point = %+v, want empty open window 3", open)
	}
}

func TestQuantilesMatchDigest(t *testing.T) {
	s, clk := newTestSink(t, 0)
	var want analyze.Digest
	for i := int64(1); i <= 200; i++ {
		d := i * 37 % 5000
		s.RecordLookups(int(i)%4, 1, 1, d, clk.Now())
		want.Add(d)
	}
	clk.Set(1100)
	sr := s.SeriesReport(clk.Now())
	p := sr.Points[0]
	if p.P50Ns != want.Quantile(50) || p.P99Ns != want.Quantile(99) {
		t.Errorf("window quantiles p50=%d p99=%d, want %d/%d",
			p.P50Ns, p.P99Ns, want.Quantile(50), want.Quantile(99))
	}
}

func TestSLOSnapshot(t *testing.T) {
	s, clk := newTestSink(t, 0)
	// 90 fast ops (50 ns) + 10 slow (200 ns > 100 ns target): exactly
	// the 10% budget.
	for i := 0; i < 90; i++ {
		s.RecordLookups(i%4, 1, 1, 50, clk.Now())
	}
	for i := 0; i < 10; i++ {
		s.RecordLookups(i%4, 1, 1, 200, clk.Now())
	}
	clk.Set(1100)
	r := s.SLOSnapshot(clk.Now())
	if r.Ops != 100 || r.Slow != 10 {
		t.Fatalf("ops/slow = %d/%d, want 100/10", r.Ops, r.Slow)
	}
	if r.BudgetUsed != 1.0 {
		t.Errorf("budget used = %g, want exactly 1.0", r.BudgetUsed)
	}
	if r.BurnRate != 1.0 {
		t.Errorf("burn rate = %g, want 1.0 (last closed window at budget)", r.BurnRate)
	}
	// p99 rank 99 lands in the fast bucket... rank = ceil(100*99/100) =
	// 99 → 90 fast then 9 slow → slow bucket. 200 ns > target → out.
	if r.P99Ns <= r.TargetP99Ns {
		t.Errorf("p99 = %d, expected over the %d target", r.P99Ns, r.TargetP99Ns)
	}
	if r.Compliant {
		t.Error("SLO reported compliant with p99 over target")
	}

	// A healthy service: new sink, all fast.
	s2, clk2 := newTestSink(t, 0)
	for i := 0; i < 100; i++ {
		s2.RecordLookups(i%4, 1, 1, 50, clk2.Now())
	}
	clk2.Set(1100)
	r2 := s2.SLOSnapshot(clk2.Now())
	if !r2.Compliant || r2.BudgetUsed != 0 || r2.Slow != 0 {
		t.Errorf("healthy SLO = %+v, want compliant with zero budget use", r2)
	}
}

func TestSLOIncludesOpenWindow(t *testing.T) {
	s, clk := newTestSink(t, 0)
	s.RecordLookups(0, 1, 1, 500, clk.Now()) // slow, still in the open window
	r := s.SLOSnapshot(clk.Now())
	if r.Ops != 1 || r.Slow != 1 {
		t.Fatalf("open-window SLO ops/slow = %d/%d, want 1/1", r.Ops, r.Slow)
	}
	if r.Compliant {
		t.Error("compliant despite 100% slow ops in the open window")
	}
}

func TestSampling(t *testing.T) {
	s, _ := newTestSink(t, 0)
	var sampled []int64
	for i := 0; i < 10; i++ {
		id, ok := s.BeginRequest()
		if ok {
			sampled = append(sampled, id)
		}
	}
	if len(sampled) != 2 || sampled[0] != 4 || sampled[1] != 8 {
		t.Fatalf("sampled ids = %v, want [4 8] with SampleEvery=4", sampled)
	}

	// SampleEvery=0 disables sampling entirely.
	cfg := testConfig()
	cfg.SampleEvery = 0
	s2, err := New(cfg, NewManualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, ok := s2.BeginRequest(); ok {
			t.Fatal("sampled a request with SampleEvery=0")
		}
	}

	// MaxTraces=0 keeps no chain, so nothing is sampled either; ids
	// still advance.
	cfg = testConfig()
	cfg.SampleEvery = 1
	cfg.MaxTraces = 0
	s3, err := New(cfg, NewManualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if id, ok := s3.BeginRequest(); ok || id != i {
			t.Fatalf("BeginRequest = (%d, %t) with MaxTraces=0, want (%d, false)", id, ok, i)
		}
	}
}

// TestNilSinkHooks checks the disabled state: every hot-path hook is
// callable on a nil sink and does nothing.
func TestNilSinkHooks(t *testing.T) {
	var s *Sink
	if id, ok := s.BeginRequest(); id != 0 || ok {
		t.Errorf("nil BeginRequest = (%d, %t), want (0, false)", id, ok)
	}
	if now := s.Now(); now != 0 {
		t.Errorf("nil Now = %d, want 0", now)
	}
	s.RecordLookups(0, 4, 2, 10, 100)
	s.RecordInserts(0, 4, 1, 10, 100)
	s.RecordInvalidations(0, 1, 100)
}

func TestTraceChains(t *testing.T) {
	s, clk := newTestSink(t, 0)
	record := func(id int64) {
		tr := s.StartTrace(id, clk.Now(), 8)
		clk.Advance(10)
		tr.Shard(s, 2, 5, clk.Now()-10, 10)
		tr.Shard(s, 3, 3, clk.Now()-5, 5)
		clk.Advance(10)
		s.FinishTrace(tr, clk.Now(), 6)
	}
	record(4)
	record(8)
	runs := s.TraceRuns()
	if len(runs) != 1 || runs[0].Label != "xlate/live-sampled" {
		t.Fatalf("runs = %+v, want one xlate/live-sampled run", runs)
	}
	evs := runs[0].Events
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6 (2 chains × (2 shard + 1 req))", len(evs))
	}
	// Chain for id 4 first (id order), request span last within a chain.
	if evs[0].Kind != obs.KindXlateShard || evs[0].Xfer != 4 || evs[0].Arg != 2 || evs[0].Arg2 != 5 {
		t.Errorf("first event = %+v, want shard 2 segment of request 4", evs[0])
	}
	if evs[2].Kind != obs.KindXlateReq || evs[2].Xfer != 4 || evs[2].Arg != 8 || evs[2].Arg2 != 6 {
		t.Errorf("third event = %+v, want request span of request 4", evs[2])
	}
	if evs[5].Kind != obs.KindXlateReq || evs[5].Xfer != 8 {
		t.Errorf("last event = %+v, want request span of request 8", evs[5])
	}
	if got := s.SampledTraces(); got != 2 {
		t.Errorf("SampledTraces = %d, want 2", got)
	}
}

func TestTraceRingBound(t *testing.T) {
	s, clk := newTestSink(t, 0)
	// MaxTraces = 3; retain 5 chains, ids 1..5. Oldest two evicted.
	for id := int64(1); id <= 5; id++ {
		tr := s.StartTrace(id, clk.Now(), 1)
		s.FinishTrace(tr, clk.Now()+1, 1)
	}
	runs := s.TraceRuns()
	evs := runs[0].Events
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (ring bound)", len(evs))
	}
	for i, wantID := range []uint64{3, 4, 5} {
		if evs[i].Xfer != wantID {
			t.Errorf("event %d id = %d, want %d", i, evs[i].Xfer, wantID)
		}
	}
	if got := s.SampledTraces(); got != 5 {
		t.Errorf("SampledTraces = %d, want 5 ever retained", got)
	}
}

func TestShardSnapshots(t *testing.T) {
	s, clk := newTestSink(t, 0)
	// Shard 0 takes 3x the lookups of shards 1..3: 600/200/200/200.
	s.RecordLookups(0, 600, 300, 40, clk.Now())
	for si := 1; si < 4; si++ {
		s.RecordLookups(si, 200, 100, 80, clk.Now())
	}
	s.RecordInserts(1, 10, 2, 60, clk.Now())
	s.RecordInvalidations(2, 5, clk.Now())
	snaps := s.ShardSnapshots(clk.Now())
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
	if snaps[0].Lookups != 600 || snaps[0].Hits != 300 || snaps[0].Misses != 300 {
		t.Errorf("shard 0 = %+v", snaps[0])
	}
	if snaps[0].LoadPermille != 500 {
		t.Errorf("shard 0 load = %d‰, want 500", snaps[0].LoadPermille)
	}
	for si := 1; si < 4; si++ {
		if snaps[si].LoadPermille != 166 {
			t.Errorf("shard %d load = %d‰, want 166", si, snaps[si].LoadPermille)
		}
	}
	if snaps[1].Inserts != 10 || snaps[1].Evictions != 2 {
		t.Errorf("shard 1 inserts/evictions = %d/%d, want 10/2", snaps[1].Inserts, snaps[1].Evictions)
	}
	if snaps[2].Invalidations != 5 {
		t.Errorf("shard 2 invalidations = %d, want 5", snaps[2].Invalidations)
	}
	if snaps[1].MaxNs < 80 {
		t.Errorf("shard 1 max = %d, want >= 80", snaps[1].MaxNs)
	}
	if snaps[1].P50Ns <= 0 || snaps[1].P99Ns < snaps[1].P50Ns {
		t.Errorf("shard 1 quantiles inconsistent: %+v", snaps[1])
	}
}

func TestTotalsSnapshot(t *testing.T) {
	s, clk := newTestSink(t, 0)
	s.RecordLookups(0, 10, 4, 50, clk.Now())
	s.RecordInserts(1, 3, 1, 20, clk.Now())
	s.RecordInvalidations(2, 2, clk.Now())
	got := s.TotalsSnapshot()
	want := Totals{Lookups: 10, Hits: 4, Misses: 6, Inserts: 3, Evictions: 1,
		Invalidations: 2, Ops: 2, Slow: 0, SumNs: 70}
	if got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
}

func TestPrometheusOutput(t *testing.T) {
	s, clk := newTestSink(t, 0)
	s.RecordLookups(0, 100, 90, 50, clk.Now())
	s.RecordLookups(1, 50, 10, 300, clk.Now())
	clk.Set(1100)
	var b strings.Builder
	if err := s.WritePrometheus(&b, clk.Now()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`utlb_live_lookups_total{shard="0"} 100`,
		`utlb_live_lookups_total{shard="1"} 50`,
		`utlb_live_hits_total{shard="1"} 10`,
		`utlb_live_slow_ops_total{shard="1"} 1`,
		"utlb_live_op_duration_ns_count 2",
		"utlb_live_op_duration_ns_sum 350",
		"utlb_live_slo_target_p99_ns 100",
		"utlb_live_slo_compliant 0",
		"utlb_live_sampled_traces_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, `utlb_live_op_duration_ns_bucket{le="+Inf"} 2`) {
		t.Error("metrics output missing +Inf bucket of 2")
	}

	var rb strings.Builder
	if err := WriteRuntimeMetrics(&rb); err != nil {
		t.Fatalf("WriteRuntimeMetrics: %v", err)
	}
	for _, want := range []string{"utlb_go_goroutines", "utlb_go_heap_alloc_bytes", "utlb_go_gc_pause_ns_total"} {
		if !strings.Contains(rb.String(), want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
}

// TestConcurrentRecording exercises the lock-free hot path and the
// folding readers together under the race detector.
func TestConcurrentRecording(t *testing.T) {
	clk := NewManualClock(0)
	clk.SetTick(7) // every Now() advances time: windows rotate under load
	s, err := New(testConfig(), clk)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				now := clk.Now()
				s.RecordLookups(g, 2, 1, 25, now)
				if i%10 == 0 {
					s.RecordInserts(g, 1, 0, 40, clk.Now())
				}
				if id, ok := s.BeginRequest(); ok {
					tr := s.StartTrace(id, now, 2)
					tr.Shard(s, g, 2, now, 25)
					s.FinishTrace(tr, clk.Now(), 1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			now := clk.Now()
			s.SeriesReport(now)
			s.SLOSnapshot(now)
			s.ShardSnapshots(now)
			s.TraceRuns()
		}
	}()
	wg.Wait()
	<-done
	tot := s.TotalsSnapshot()
	if tot.Lookups != 4*500*2 {
		t.Errorf("lookups = %d, want %d", tot.Lookups, 4*500*2)
	}
	if tot.Inserts != 4*50 {
		t.Errorf("inserts = %d, want %d", tot.Inserts, 4*50)
	}
	// Every op was timed: 500 lookups + 50 inserts per goroutine.
	if tot.Ops != 4*550 {
		t.Errorf("ops = %d, want %d", tot.Ops, 4*550)
	}
}
