package main

import (
	"encoding/json"
	"fmt"

	"utlb/internal/experiments"
)

// The benchmark's definition. BENCHMARK.json at the repository root
// is `perfbench --spec` verbatim; a test keeps the two equal.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

var workloadSpecs = []workloadSpec{
	{"suite", "every paper experiment via experiments.Run at pool width 2 from a cold trace store: run setup, trace generation and pool balance dominate"},
	{"bulk", "long bulk-transfer traces, footprint 3x the NIC cache, through sim.RunWith under 3 configs: the per-reference path dominates, setup does not"},
	{"xlate-hit", "2 closed-loop HTTP clients, zipf 64-key lookups over a primed footprint that fits the service: transport and encode/decode dominate"},
	{"xlate-fill", "the same clients, uniform keys over 4x the service capacity, every miss inserted by POST: drives the write path and eviction"},
}

var endToEndSpecs = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"req_p50_us", "us", "lower", 0.25},
	{"req_p95_us", "us", "lower", 0.25},
}

// perLayerSpecs lists every per-layer metric a traced run reports. A
// workload that does not exercise a layer reports it as 0.
func perLayerSpecs() []perLayerSpec {
	var out []perLayerSpec
	add := func(name, unit, better string) { out = append(out, perLayerSpec{name, unit, better}) }
	for _, name := range experiments.Names {
		add("experiments."+name+"_s", "s", "lower")
	}
	add("parallel.utilisation", "ratio", "higher")
	add("workload.gen_s", "s", "lower")
	add("workload.records", "count", "lower")
	for _, l := range profileLayers {
		add(l+".self_s", "s", "lower")
	}
	add("sim.setup.self_s", "s", "lower")
	add("sim.ns_per_ref", "ns", "lower")
	add("profile.samples", "count", "lower")
	add("trace_overhead", "ratio", "lower")
	add("host.wall_s", "s", "lower")
	add("host.ref_s", "s", "lower")
	add("requests", "count", "higher")
	for _, c := range bulkConfigs(0) {
		p := "sim." + c.name + "."
		for _, n := range []string{"lookups", "ni_refs", "ni_misses", "check_misses", "pins", "unpins", "compulsory", "capacity", "conflict"} {
			add(p+n, "count", "lower")
		}
		for _, n := range []string{"host_ms", "nic_ms", "dma_ms", "makespan_ms"} {
			add(p+n, "sim_ms", "lower")
		}
	}
	add("sim.makespan_ms", "sim_ms", "lower")
	add("tlbcache.hit_ratio", "ratio", "higher")
	add("core.check_hit_ratio", "ratio", "higher")
	add("bus.dma_reads", "count", "lower")
	add("bus.dma_writes", "count", "lower")
	add("bus.dma_bytes", "B", "lower")
	add("transport.self_us", "us", "lower")
	add("transport.conns_opened", "count", "lower")
	add("serve.handler_us", "us", "lower")
	add("serve.self_us", "us", "lower")
	add("serve.allocs_per_req", "count", "lower")
	add("xlate.batch_us", "us", "lower")
	add("xlate.hit_ratio", "ratio", "higher")
	add("xlate.evictions", "count", "lower")
	add("xlate.shard_skew", "ratio", "lower")
	return out
}

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 25,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs(),
	}
}

func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// complete checks that m holds exactly the metrics the spec names for
// the run kind, with the spec's units, filling per-layer metrics the
// workload does not reach with 0.
func complete(m metrics, traced bool) error {
	want := map[string]string{}
	if traced {
		for _, s := range perLayerSpecs() {
			want[s.Name] = s.Unit
			if _, ok := m[s.Name]; !ok {
				m.set(s.Name, 0, s.Unit)
			}
		}
	} else {
		for _, s := range endToEndSpecs {
			want[s.Name] = s.Unit
		}
	}
	for name, v := range m {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %q is not in the spec", name)
		}
		if v.Unit != unit {
			return fmt.Errorf("metric %q: unit %q, spec says %q", name, v.Unit, unit)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics reported, spec has %d", len(m), len(want))
	}
	return nil
}
