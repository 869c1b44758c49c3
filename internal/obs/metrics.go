package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
)

// Prometheus-style text export: event counters per kind plus latency
// histograms for span kinds. Buckets are fixed log2 boundaries so the
// output never depends on the data distribution — deterministic for a
// given event multiset regardless of run merge order (counter addition
// commutes).

// Histogram buckets: 2^7 .. 2^26 ns (128 ns .. ~67 ms) plus +Inf.
// The span of interest runs from a single UTLB-Cache probe (~hundreds
// of ns) up to a pin ioctl storm under an interrupt (~ms). The live
// telemetry export (internal/telemetry) shares these boundaries.
const (
	bucketLow  = 7  // 2^7 = 128 ns
	bucketHigh = 26 // 2^26 ≈ 67 ms
	// NumBuckets is the number of finite histogram buckets.
	NumBuckets = bucketHigh - bucketLow + 1
)

// Metrics is the aggregate of one or more runs: per-kind counts, and
// per-kind duration histograms for span kinds.
type Metrics struct {
	Count [NumKinds]int64
	// Hist[k][i] counts events of kind k that land in bucket i alone:
	// 2^(bucketLow+i-1) < Dur <= 2^(bucketLow+i), with bucket 0 taking
	// everything at or below its boundary. Events above the largest
	// finite bucket land only in the implicit +Inf (HistN - sum of
	// Hist). The Prometheus export computes the cumulative
	// less-or-equal counts the format wants at write time, so
	// aggregation touches exactly one bucket per event.
	Hist   [NumKinds][NumBuckets]int64
	HistN  [NumKinds]int64 // all span events, including those beyond the last finite bucket
	SumDur [NumKinds]int64
}

// BucketBound is the upper boundary of finite bucket i, in ns: the
// Prometheus le label.
func BucketBound(i int) int64 { return 1 << (bucketLow + i) }

// BucketIndex returns the index of the smallest bucket boundary
// BucketBound(i) that is >= d, or a value >= NumBuckets when d
// exceeds the largest finite boundary (+Inf only). One bits.Len64
// instead of a scan over all twenty boundaries.
func BucketIndex(d uint64) int {
	if d <= 1<<bucketLow {
		return 0
	}
	// Smallest p with d <= 2^p is Len64(d-1); d > 2^bucketLow here.
	return bits.Len64(d-1) - bucketLow
}

// Aggregate folds all events of all runs into one Metrics.
func Aggregate(runs []Run) *Metrics {
	m := &Metrics{}
	for _, run := range runs {
		for _, ev := range run.Events {
			m.Count[ev.Kind]++
			if !ev.Kind.IsSpan() {
				continue
			}
			m.SumDur[ev.Kind] += int64(ev.Dur)
			m.HistN[ev.Kind]++
			if i := BucketIndex(uint64(ev.Dur)); i < NumBuckets {
				m.Hist[ev.Kind][i]++
			}
		}
	}
	return m
}

// AggregateReference is the pre-optimisation Aggregate: it compares
// every span duration against every bucket boundary and stores
// cumulative counts directly. Kept (converted to the per-bucket Hist
// representation) as the oracle for the equivalence test and the
// baseline for BenchmarkAggregate; not for production use.
func AggregateReference(runs []Run) *Metrics {
	m := &Metrics{}
	for _, run := range runs {
		for _, ev := range run.Events {
			m.Count[ev.Kind]++
			if !ev.Kind.IsSpan() {
				continue
			}
			m.SumDur[ev.Kind] += int64(ev.Dur)
			m.HistN[ev.Kind]++
			for i := 0; i < NumBuckets; i++ {
				if int64(ev.Dur) <= BucketBound(i) {
					m.Hist[ev.Kind][i]++
				}
			}
		}
	}
	// The loop above filled cumulative counts; difference them into
	// the per-bucket representation Metrics now carries.
	for k := range m.Hist {
		for i := NumBuckets - 1; i > 0; i-- {
			m.Hist[k][i] -= m.Hist[k][i-1]
		}
	}
	return m
}

// WritePrometheus writes the metrics in Prometheus text exposition
// format. Kinds are emitted in taxonomy order; zero-count kinds are
// skipped so small runs stay readable. Output is byte-deterministic.
func WritePrometheus(w io.Writer, m *Metrics) error {
	bw := bufio.NewWriterSize(w, 1<<15)

	bw.WriteString("# HELP utlb_events_total Simulation events by kind.\n")
	bw.WriteString("# TYPE utlb_events_total counter\n")
	for k := 1; k < NumKinds; k++ {
		if m.Count[k] == 0 {
			continue
		}
		meta := kindMetas[k]
		fmt.Fprintf(bw, "utlb_events_total{kind=%q,comp=%q} %d\n",
			meta.name, meta.comp, m.Count[k])
	}

	bw.WriteString("# HELP utlb_event_duration_ns Simulated duration of span events.\n")
	bw.WriteString("# TYPE utlb_event_duration_ns histogram\n")
	for k := 1; k < NumKinds; k++ {
		if m.HistN[k] == 0 {
			continue
		}
		meta := kindMetas[k]
		cum := int64(0)
		for i := 0; i < NumBuckets; i++ {
			cum += m.Hist[k][i]
			fmt.Fprintf(bw, "utlb_event_duration_ns_bucket{kind=%q,le=\"%d\"} %d\n",
				meta.name, BucketBound(i), cum)
		}
		fmt.Fprintf(bw, "utlb_event_duration_ns_bucket{kind=%q,le=\"+Inf\"} %d\n",
			meta.name, m.HistN[k])
		fmt.Fprintf(bw, "utlb_event_duration_ns_sum{kind=%q} %d\n", meta.name, m.SumDur[k])
		fmt.Fprintf(bw, "utlb_event_duration_ns_count{kind=%q} %d\n", meta.name, m.HistN[k])
	}
	return bw.Flush()
}
