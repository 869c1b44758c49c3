package main

import (
	"time"

	"utlb/internal/obs"
	"utlb/internal/sim"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// Bulk workload geometry: bulkTraces long BulkTransfer traces at
// bulkScale. At scale 3 a trace issues 12 000 transfers of 1-16 pages
// over a 24 576-page region — three times the 8 K-entry NIC cache — so
// misses, DMA fills, unpins and event-kernel traffic never stop.
const (
	bulkTraces = 2
	bulkScale  = 3.0
	// bulkPrefetch is the miss prefetch width of both UTLB configs:
	// utlb-seq is utlb-overlap's sequential-charging twin, so the two
	// must report identical counters.
	bulkPrefetch = 8
)

// bulkCfg is one simulated configuration.
type bulkCfg struct {
	name string
	cfg  sim.Config
}

func bulkConfigs(seed int64) []bulkCfg {
	seq := sim.DefaultConfig()
	seq.Prefetch = bulkPrefetch
	seq.Seed = seed
	overlap := seq
	overlap.Overlap = sim.OverlapConfig{Enabled: true, DMAChannels: 2}
	intr := sim.DefaultConfig()
	intr.Mechanism = sim.Interrupt
	intr.Seed = seed
	return []bulkCfg{{"utlb-seq", seq}, {"utlb-overlap", overlap}, {"intr", intr}}
}

// bulk simulates a few long bulk-transfer traces under three
// configurations through sim.RunWith, reusing one scratch per config.
type bulk struct {
	seed    int64
	cfgs    []bulkCfg
	traces  []trace.Trace
	scratch []*sim.RunScratch
	first   [][]sim.Result // [trace][cfg] results of the first pass
	last    [][]sim.Result

	genNS   []float64
	records int64
}

func newBulk(seed int64) *bulk { return &bulk{seed: seed, cfgs: bulkConfigs(seed)} }

// bulkTrace generates trace i of a bulk run.
func bulkTrace(seed int64, i int) trace.Trace {
	return workload.BulkTransfer(units.NodeID(i), 1, seed*1000+int64(i), bulkScale)
}

// setup generates the traces and warms one scratch per config with a
// run over the first trace, so the timed passes reuse grown buffers.
func (b *bulk) setup(t *tally, sp *spans) error {
	b.traces = b.traces[:0]
	b.records = 0
	var gen time.Duration
	for i := 0; i < bulkTraces; i++ {
		t0 := time.Now()
		tr := bulkTrace(b.seed, i)
		t1 := time.Now()
		sp.add("workload.BulkTransfer", 0, 0, t0, t1)
		gen += t1.Sub(t0)
		b.traces = append(b.traces, tr)
		b.records += int64(len(tr))
	}
	b.genNS = append(b.genNS, float64(gen))
	b.scratch = b.scratch[:0]
	for _, c := range b.cfgs {
		scr := sim.NewRunScratch()
		_, err := sim.RunWith(b.traces[0], c.cfg, scr)
		t.check(err == nil, "bulk: warm-up %s: %v", c.name, err)
		b.scratch = append(b.scratch, scr)
	}
	return nil
}

func (b *bulk) pass(t *tally, sp *spans) (passStats, error) {
	var ps passStats
	var passID int64
	p0 := time.Now()
	if sp != nil {
		passID = sp.add("bulk.pass", 0, 0, p0, p0)
	}
	results := make([][]sim.Result, len(b.traces))
	for ti, tr := range b.traces {
		results[ti] = make([]sim.Result, len(b.cfgs))
		for ci, c := range b.cfgs {
			t0 := time.Now()
			res, err := sim.RunWith(tr, c.cfg, b.scratch[ci])
			t1 := time.Now()
			sp.add("sim.RunWith/"+c.name, passID, 0, t0, t1)
			ps.reqs = append(ps.reqs, t1.Sub(t0))
			t.check(err == nil, "bulk: trace %d %s: %v", ti, c.name, err)
			t.check(res.Compulsory+res.Capacity+res.Conflict == res.NIMisses,
				"bulk: trace %d %s: 3C sum %d != NI misses %d", ti, c.name,
				res.Compulsory+res.Capacity+res.Conflict, res.NIMisses)
			results[ti][ci] = res
		}
		seq, ov := results[ti][0], results[ti][1]
		t.check(counters(seq) == counters(ov), "bulk: trace %d: overlap counters %+v != sequential %+v", ti, counters(ov), counters(seq))
		t.check(ov.Makespan <= seq.Makespan, "bulk: trace %d: overlap makespan %v > sequential %v", ti, ov.Makespan, seq.Makespan)
	}
	if sp != nil {
		sp.setEnd(passID, time.Now())
	}
	if b.first == nil {
		b.first = results
	}
	for ti := range results {
		for ci := range results[ti] {
			t.check(counters(results[ti][ci]) == counters(b.first[ti][ci]) &&
				results[ti][ci].Makespan == b.first[ti][ci].Makespan,
				"bulk: trace %d %s differs from the first pass", ti, b.cfgs[ci].name)
		}
	}
	b.last = results
	return ps, nil
}

// simCounters are a run's mode-invariant counters.
type simCounters struct {
	Lookups, NIRefs, NIMisses, CheckMisses, Pins, Unpins int64
	Compulsory, Capacity, Conflict                       int64
}

func counters(r sim.Result) simCounters {
	return simCounters{r.Lookups, r.NIRefs, r.NIMisses, r.CheckMisses, r.Pins, r.Unpins,
		r.Compulsory, r.Capacity, r.Conflict}
}

// dmaCounter is an obs.Recorder counting the bus's DMA transfers.
type dmaCounter struct{ reads, writes, bytes int64 }

func (d *dmaCounter) Record(ev obs.Event) {
	switch ev.Kind {
	case obs.KindDMARead:
		d.reads++
		d.bytes += int64(ev.Arg)
	case obs.KindDMAWrite:
		d.writes++
		d.bytes += int64(ev.Arg)
	}
}

func ms(t units.Time) float64 { return float64(t) / float64(units.Millisecond) }

// layers reports the deterministic per-config counters and simulated
// times, host ns per reference, hit ratios, and — from one extra pass
// with a counting recorder attached — the bus's DMA traffic.
func (b *bulk) layers(t *tally, sp *spans, _ *attribution, m metrics) error {
	var makespan units.Time
	var refs int64
	for ci, c := range b.cfgs {
		var sum sim.Result
		for ti := range b.last {
			r := b.last[ti][ci]
			sum.Lookups += r.Lookups
			sum.NIRefs += r.NIRefs
			sum.NIMisses += r.NIMisses
			sum.CheckMisses += r.CheckMisses
			sum.Pins += r.Pins
			sum.Unpins += r.Unpins
			sum.Compulsory += r.Compulsory
			sum.Capacity += r.Capacity
			sum.Conflict += r.Conflict
			sum.HostTime += r.HostTime
			sum.NICTime += r.NICTime
			sum.DMATime += r.DMATime
			sum.Makespan += r.Makespan
		}
		p := "sim." + c.name + "."
		m.set(p+"lookups", float64(sum.Lookups), "count")
		m.set(p+"ni_refs", float64(sum.NIRefs), "count")
		m.set(p+"ni_misses", float64(sum.NIMisses), "count")
		m.set(p+"check_misses", float64(sum.CheckMisses), "count")
		m.set(p+"pins", float64(sum.Pins), "count")
		m.set(p+"unpins", float64(sum.Unpins), "count")
		m.set(p+"compulsory", float64(sum.Compulsory), "count")
		m.set(p+"capacity", float64(sum.Capacity), "count")
		m.set(p+"conflict", float64(sum.Conflict), "count")
		m.set(p+"host_ms", ms(sum.HostTime), "sim_ms")
		m.set(p+"nic_ms", ms(sum.NICTime), "sim_ms")
		m.set(p+"dma_ms", ms(sum.DMATime), "sim_ms")
		m.set(p+"makespan_ms", ms(sum.Makespan), "sim_ms")
		makespan += sum.Makespan
		refs += sum.NIRefs
		if ci == 0 {
			m.set("tlbcache.hit_ratio", 1-float64(sum.NIMisses)/float64(sum.NIRefs), "ratio")
			m.set("core.check_hit_ratio", 1-float64(sum.CheckMisses)/float64(sum.Lookups), "ratio")
		}
	}
	m.set("sim.makespan_ms", ms(makespan), "sim_ms")

	var runNS float64
	for _, s := range sp.prefixed("sim.RunWith/") {
		runNS += float64(s.dur())
	}
	passes := len(sp.prefixed("bulk.pass"))
	if passes > 0 && refs > 0 {
		m.set("sim.ns_per_ref", runNS/float64(passes)/float64(refs), "ns")
	}
	m.set("workload.gen_s", median(b.genNS)/1e9, "s")
	m.set("workload.records", float64(b.records), "count")

	var dma dmaCounter
	for ti, tr := range b.traces {
		for ci, c := range b.cfgs {
			cfg := c.cfg
			cfg.Recorder = &dma
			res, err := sim.RunWith(tr, cfg, b.scratch[ci])
			want := b.last[ti][ci]
			// Attaching a recorder must never change a result.
			t.check(err == nil && counters(res) == counters(want) && res.Makespan == want.Makespan,
				"bulk: trace %d %s with a recorder: err=%v, result differs", ti, c.name, err)
		}
	}
	m.set("bus.dma_reads", float64(dma.reads), "count")
	m.set("bus.dma_writes", float64(dma.writes), "count")
	m.set("bus.dma_bytes", float64(dma.bytes), "B")
	return nil
}

func (b *bulk) close() {}
