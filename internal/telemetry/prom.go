package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"runtime"

	"utlb/internal/obs"
	"utlb/internal/obs/analyze"
)

// Prometheus text export for the live sink, joined into /metrics next
// to the obs event metrics and the xlate service counters. Same
// discipline as obs.WritePrometheus: fixed log2 bucket boundaries,
// integer counters, byte-deterministic output for a given state.

// WritePrometheus writes the sink's cumulative state as utlb_live_*
// metrics: per-shard counters, the service-wide latency histogram
// (digest buckets coarsened onto the shared log2 boundaries), and the
// SLO position evaluated over the window ring at now.
func (t *Sink) WritePrometheus(w io.Writer, now int64) error {
	bw := bufio.NewWriterSize(w, 1<<14)

	writeShardCounter := func(name, help string, load func(*shardTel) int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := range t.shards {
			fmt.Fprintf(bw, "%s{shard=\"%d\"} %d\n", name, i, load(&t.shards[i]))
		}
	}
	writeShardCounter("utlb_live_lookups_total", "Keys looked up, by shard.",
		func(s *shardTel) int64 { return s.lookups.Load() })
	writeShardCounter("utlb_live_hits_total", "Lookup hits, by shard.",
		func(s *shardTel) int64 { return s.hits.Load() })
	writeShardCounter("utlb_live_misses_total", "Lookup misses, by shard.",
		func(s *shardTel) int64 { return s.misses.Load() })
	writeShardCounter("utlb_live_inserts_total", "Keys inserted, by shard.",
		func(s *shardTel) int64 { return s.inserts.Load() })
	writeShardCounter("utlb_live_evictions_total", "Insert evictions, by shard.",
		func(s *shardTel) int64 { return s.evictions.Load() })
	writeShardCounter("utlb_live_invalidations_total", "Translations invalidated, by shard.",
		func(s *shardTel) int64 { return s.invalidations.Load() })
	writeShardCounter("utlb_live_slow_ops_total", "Timed shard operations over the SLO target, by shard.",
		func(s *shardTel) int64 { return s.slow.Load() })

	// Service-wide latency histogram: digest buckets coarsened onto the
	// shared log2 boundaries (a digest bucket's lower bound picks its
	// le-bucket; sub-boundary resolution is already ~3%).
	var hist [obs.NumBuckets]int64
	var n, sum int64
	for i := range t.shards {
		s := &t.shards[i]
		n += s.ops.Load()
		sum += s.sumNs.Load()
		for b := 0; b < analyze.DigestBuckets; b++ {
			c := s.hist[b].Load()
			if c == 0 {
				continue
			}
			if bi := obs.BucketIndex(uint64(analyze.BucketValue(b))); bi < obs.NumBuckets {
				hist[bi] += c
			}
		}
	}
	bw.WriteString("# HELP utlb_live_op_duration_ns Latency of timed shard operations.\n")
	bw.WriteString("# TYPE utlb_live_op_duration_ns histogram\n")
	cum := int64(0)
	for i := 0; i < obs.NumBuckets; i++ {
		cum += hist[i]
		fmt.Fprintf(bw, "utlb_live_op_duration_ns_bucket{le=\"%d\"} %d\n",
			obs.BucketBound(i), cum)
	}
	fmt.Fprintf(bw, "utlb_live_op_duration_ns_bucket{le=\"+Inf\"} %d\n", n)
	fmt.Fprintf(bw, "utlb_live_op_duration_ns_sum %d\n", sum)
	fmt.Fprintf(bw, "utlb_live_op_duration_ns_count %d\n", n)

	slo := t.SLOSnapshot(now)
	bw.WriteString("# HELP utlb_live_slo_target_p99_ns Latency objective (p99 target).\n")
	bw.WriteString("# TYPE utlb_live_slo_target_p99_ns gauge\n")
	fmt.Fprintf(bw, "utlb_live_slo_target_p99_ns %d\n", slo.TargetP99Ns)
	bw.WriteString("# HELP utlb_live_slo_p99_ns Observed p99 over the window ring.\n")
	bw.WriteString("# TYPE utlb_live_slo_p99_ns gauge\n")
	fmt.Fprintf(bw, "utlb_live_slo_p99_ns %d\n", slo.P99Ns)
	bw.WriteString("# HELP utlb_live_slo_budget_used Error budget consumed over the window ring (1.0 = spent).\n")
	bw.WriteString("# TYPE utlb_live_slo_budget_used gauge\n")
	fmt.Fprintf(bw, "utlb_live_slo_budget_used %g\n", slo.BudgetUsed)
	bw.WriteString("# HELP utlb_live_slo_compliant Whether the service is inside its SLO (1 = yes).\n")
	bw.WriteString("# TYPE utlb_live_slo_compliant gauge\n")
	c := 0
	if slo.Compliant {
		c = 1
	}
	fmt.Fprintf(bw, "utlb_live_slo_compliant %d\n", c)

	fmt.Fprintf(bw, "# HELP utlb_live_sampled_traces_total Sampled request chains retained.\n")
	fmt.Fprintf(bw, "# TYPE utlb_live_sampled_traces_total counter\n")
	fmt.Fprintf(bw, "utlb_live_sampled_traces_total %d\n", t.SampledTraces())

	return bw.Flush()
}

// WriteRuntimeMetrics writes Go runtime health next to the service
// metrics: goroutine count, heap occupancy, GC cycles and pause
// totals. These are the "is the collector itself healthy" numbers a
// live dashboard needs alongside service latency.
func WriteRuntimeMetrics(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<12)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	g := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	g("utlb_go_goroutines", "Live goroutines.", uint64(runtime.NumGoroutine()))
	g("utlb_go_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc)
	g("utlb_go_heap_sys_bytes", "Heap memory obtained from the OS.", ms.HeapSys)
	g("utlb_go_heap_objects", "Live heap objects.", ms.HeapObjects)
	g("utlb_go_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	g("utlb_go_gc_pause_ns_total", "Cumulative GC stop-the-world pause.", ms.PauseTotalNs)
	g("utlb_go_next_gc_bytes", "Heap size target of the next GC cycle.", ms.NextGC)
	return bw.Flush()
}
