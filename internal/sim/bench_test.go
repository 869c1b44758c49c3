package sim

// Inner-loop micro-benchmarks: the classifier and Run sit on the
// per-page hot path of every experiment, so their ns/op and allocs/op
// are tracked in BENCH_baseline.json. Run with:
//
//	go test -run '^$' -bench 'BenchmarkClassifier|BenchmarkSimRun' -benchmem ./internal/sim
import (
	"strings"
	"testing"

	"utlb/internal/units"
	"utlb/internal/workload"
)

// BenchmarkClassifier drives the 3C classifier with a working set
// twice the shadow-cache capacity, so references steadily alternate
// between shadow hits, evictions and re-insertions — the steady state
// of a capacity-constrained run.
func BenchmarkClassifier(b *testing.B) {
	const capacity = 1024
	cls := newClassifier(capacity)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := units.VPN(i % (2 * capacity))
		cls.classify(&res, 1, vpn, i%3 == 0)
	}
}

// BenchmarkClassifierHit is the pure shadow-hit path: the whole
// working set is resident, so every reference is one map lookup plus a
// list move.
func BenchmarkClassifierHit(b *testing.B) {
	const capacity = 4096
	cls := newClassifier(capacity)
	var res Result
	for v := units.VPN(0); v < capacity/2; v++ {
		cls.classify(&res, 1, v, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.classify(&res, 1, units.VPN(i%(capacity/2)), false)
	}
}

// BenchmarkSimRun times one full trace-driven run per iteration, one
// sub-benchmark per design, on a memoised (pre-sorted) workload trace —
// the unit of work the parallel experiment engine fans out. Every
// design runs through the same RunWith loop, so the sub-benchmarks
// compare the designs' own work.
func BenchmarkSimRun(b *testing.B) {
	spec, err := workload.ByName("water-spatial")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.GenerateCached(workload.Config{Node: 0, FirstPID: 1, Seed: 1998, Scale: 0.1})
	for m := Mechanism(0); m.known(); m++ {
		b.Run(strings.ToLower(m.String()), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Mechanism = m
			cfg.CacheEntries = 1024
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
