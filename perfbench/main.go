// Command perfbench is the repository benchmark. It drives the UTLB
// simulator and the live translation service through their public
// entry points — experiments.Run, workload generation, sim.RunWith,
// serve.Server.Handler and xlate.Service — and reports end-to-end
// metrics (untraced run) or per-layer metrics (traced run) as one JSON
// object on the last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload suite|bulk|xlate-hit|xlate-fill \
//	    --seed N --seconds S --trace 0|1
//
// README.md in this directory explains every workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"utlb/internal/parallel"
)

// width is the client and worker-pool width: the 2 CPUs of the
// reference machine. Every workload uses it, so the benchmark never
// oversubscribes the host it measures.
const width = 2

// outDir receives a traced run's span and profile files, relative to
// the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// setupReps is how many times each run builds its inputs; setup_s is
// the median.
const setupReps = 7

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the benchmark's result line.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// passStats is what one timed pass of a workload produced. The work
// in a pass is fixed per workload, so wall time alone gives its rate.
type passStats struct {
	// reqs are the latencies of the pass's individual requests.
	reqs []time.Duration
}

// bench is one benchmark workload. setup runs setupReps times
// (each replacing the previous state); pass then runs repeatedly
// until the measuring time is up.
type bench interface {
	setup(t *tally, sp *spans) error
	pass(t *tally, sp *spans) (passStats, error)
	// layers adds the workload's per-layer metrics after the traced
	// passes, given their spans and CPU profile.
	layers(t *tally, sp *spans, prof *attribution, m metrics) error
	close()
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "suite":
		return newSuite(seed, suiteScale), nil
	case "bulk":
		return newBulk(seed), nil
	case "xlate-hit":
		return newXlate(seed, false), nil
	case "xlate-fill":
		return newXlate(seed, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, bulk, xlate-hit or xlate-fill)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: suite, bulk, xlate-hit, xlate-fill")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run (per-layer metrics)")
	printSpec := fs.Bool("spec", false, "print the benchmark definition (BENCHMARK.json) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printSpec {
		b, err := specJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	parallel.SetWorkers(width)
	w, err := newBench(*name, *seed)
	if err != nil {
		return err
	}
	defer w.close()

	t := &tally{}
	m := metrics{}
	budget := time.Duration(*seconds * float64(time.Second))
	if *traceFlag == 0 {
		setupS, err := doSetup(w, t, nil)
		if err != nil {
			return err
		}
		meas, err := measure(w, t, nil, budget)
		if err != nil {
			return err
		}
		m.set("setup_s", setupS, "s")
		meas.endToEnd(m)
	} else {
		if err := tracedRun(w, t, m, budget, *name, *seed); err != nil {
			return err
		}
	}
	if err := complete(m, *traceFlag != 0); err != nil {
		return err
	}
	rep := Report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// doSetup builds the workload's inputs setupReps times and returns the
// median set-up time in seconds, scaled to nominal host speed (see
// hostspeed.go) unless the run is traced.
func doSetup(w bench, t *tally, sp *spans) (float64, error) {
	var ds []float64
	var refs refTimes
	for i := 0; i < setupReps; i++ {
		if sp == nil {
			refs.take()
		}
		// Each set-up starts, like a fresh process, from a heap whose
		// free memory has been returned to the OS.
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(t, sp); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	if sp == nil {
		refs.take()
		ds = refs.scale(ds)
	}
	return median(ds), nil
}

// measurement is the record of a run's timed passes, one entry per
// pass in each slice. Host times are scaled to nominal host speed
// (see hostspeed.go), except raw.
type measurement struct {
	raw    []float64 // host seconds as measured
	ref    refTimes  // reference kernel seconds around the passes (untraced)
	wall   []float64 // host seconds
	allocs []float64 // MB allocated
	p50    []float64 // median request latency, µs
	p95    []float64 // 95th-percentile request latency, µs
	reqs   int       // requests timed
}

// measure runs passes until budget has elapsed (at least two). Untraced
// passes alternate with runs of the reference kernel, which scale their
// host times; traced passes are not scaled, so the profile holds only
// the workload.
func measure(w bench, t *tally, sp *spans, budget time.Duration) (measurement, error) {
	var m measurement
	var refs refTimes
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for len(m.raw) < 2 || time.Since(start) < budget {
		if sp == nil {
			refs.take()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ps, err := w.pass(t, sp)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return m, err
		}
		m.raw = append(m.raw, d.Seconds())
		m.allocs = append(m.allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		m.p50 = append(m.p50, quantileUS(ps.reqs, 0.50))
		m.p95 = append(m.p95, quantileUS(ps.reqs, 0.95))
		m.reqs += len(ps.reqs)
	}
	m.wall = m.raw
	if sp == nil {
		refs.take()
		m.ref = refs
		m.wall, m.p50, m.p95 = refs.scale(m.raw), refs.scale(m.p50), refs.scale(m.p95)
	}
	return m, nil
}

// endToEnd reports the untraced run's metrics (setup_s aside): the
// median over passes of each per-pass figure.
func (m measurement) endToEnd(out metrics) {
	out.set("wall_s", median(m.wall), "s")
	out.set("alloc_mb", median(m.allocs), "MB")
	out.set("req_p50_us", median(m.p50), "us")
	out.set("req_p95_us", median(m.p95), "us")
}

// tracedRun splits the budget between an untraced and a traced
// measurement of the same workload. The traced half records spans and
// a CPU profile; the per-layer metrics come from it, and
// trace_overhead compares the two halves' median pass times.
func tracedRun(w bench, t *tally, m metrics, budget time.Duration, name string, seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sp := newSpans()
	if _, err := doSetup(w, t, sp); err != nil {
		return err
	}
	plain, err := measure(w, t, nil, budget/2)
	if err != nil {
		return err
	}
	var raw bytes.Buffer
	if err := pprof.StartCPUProfile(&raw); err != nil {
		return err
	}
	traced, err := measure(w, t, sp, budget/2)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(stem+".cpu.pprof", raw.Bytes(), 0o644); err != nil {
		return err
	}
	prof, err := attributeProfile(raw.Bytes())
	if err != nil {
		return err
	}
	// The reported self times must account for every sample.
	t.check(prof.sumLayers() == prof.totalNS, "profile attribution lost samples: %d of %d ns", prof.sumLayers(), prof.totalNS)
	if err := w.layers(t, sp, prof, m); err != nil {
		return err
	}
	prof.report(m)
	m.set("trace_overhead", median(traced.raw)/median(plain.raw)-1, "ratio")
	m.set("host.wall_s", median(plain.raw), "s")
	m.set("host.ref_s", median(plain.ref), "s")
	m.set("profile.samples", float64(prof.samples), "count")
	m.set("requests", float64(traced.reqs), "count")
	return sp.write(stem + ".spans.json")
}

// tally counts attempted and failed operations and checks.
type tally struct {
	attempted, failed int64
	logged            int
}

// check records one checked operation; a false cond is a failure,
// described on standard error (the first few only).
func (t *tally) check(cond bool, format string, args ...any) bool {
	t.attempted++
	if !cond {
		t.failed++
		if t.logged < 10 {
			t.logged++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return cond
}

// merge adds o's counts to t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// metrics collects named values.
type metrics map[string]Metric

func (m metrics) set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUS returns the q-quantile of ds in microseconds (nearest
// rank; 0 for none).
func quantileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Microsecond)
}
