// Package experiments regenerates every table and figure of the
// paper's evaluation (§5-§6). Each experiment returns renderable text
// via internal/stats; cmd/utlbsim and bench_test.go are thin shells
// around this package. DESIGN.md carries the experiment-to-module
// index; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"utlb/internal/obs"
	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// Options tune experiment execution.
type Options struct {
	// Scale shrinks the workload traces (1.0 = the paper's size).
	Scale float64
	// Seed drives workload generation and randomised policies.
	Seed int64
	// Apps restricts the application set (nil = all seven).
	Apps []string
	// Nodes is how many cluster nodes to simulate and average over
	// (the paper runs four and reports per-node averages). Default 1.
	Nodes int
	// Obs, when non-nil, collects the event timeline of every
	// simulation run. Each run records into its own deterministically
	// labelled buffer (experiment/app/config/node), so the merged
	// export is byte-identical at any -parallel width.
	Obs *obs.Collector
	// Fault parameterises the chaos experiment's deterministic fault
	// injection (see chaos.go); the zero value selects the defaults.
	Fault FaultOptions
}

// DefaultOptions runs the full paper-scale evaluation.
func DefaultOptions() Options { return Options{Scale: 1.0, Seed: 1998} }

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

func (o Options) nodes() int {
	if o.Nodes <= 0 {
		return 1
	}
	return o.Nodes
}

func (o Options) apps() []string {
	if len(o.Apps) == 0 {
		return workload.Names()
	}
	return o.Apps
}

// recorderFor returns the collector buffer for one simulation run, or
// nil (recording disabled) when no collector is attached. The label
// must be deterministic and unique per run: concurrent runs append to
// separate buffers, and the collector merges them in label order.
func (o Options) recorderFor(label string) obs.Recorder {
	if o.Obs == nil {
		return nil
	}
	return o.Obs.Buffer(label)
}

// simConfig is the paper's baseline configuration, seeded from o.
func (o Options) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = o.Seed
	return cfg
}

// simulate runs tr under cfg, recording into label's buffer (see
// recorderFor).
func (o Options) simulate(tr trace.Trace, cfg sim.Config, label string) (sim.Result, error) {
	cfg.Recorder = o.recorderFor(label)
	return sim.Run(tr, cfg)
}

// traceFor returns app's node-0 trace, memoised in the process-wide
// workload trace store (shared across experiments and goroutines; the
// trace must be treated as read-only).
func (o Options) traceFor(app string) (trace.Trace, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return spec.GenerateCached(workload.Config{
		Node: 0, FirstPID: 1, Seed: o.Seed, Scale: o.scale(),
	}), nil
}

// nodeTracesFor returns one trace per simulated node (distinct seeds,
// globally unique PIDs), each memoised in the workload trace store.
// Node 0's trace is the same store entry traceFor returns.
func (o Options) nodeTracesFor(app string) ([]trace.Trace, error) {
	spec, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return parallel.Map(o.nodes(), func(n int) (trace.Trace, error) {
		return spec.GenerateCached(workload.Config{
			Node:     units.NodeID(n),
			FirstPID: units.ProcID(1 + n*workload.ProcsPerNode),
			Seed:     o.Seed + int64(n)*7919,
			Scale:    o.scale(),
		}), nil
	})
}

// avgOver runs f on every node trace of app and averages the returned
// rates element-wise — "all the numbers are averaged over the total
// number of lookups ... on each node" (§6.2). The per-node runs are
// independent simulations, so they fan out through the worker pool;
// summation stays in node order, so the float result is bit-identical
// to the sequential loop's.
func (o Options) avgOver(app string, f func(node int, tr trace.Trace) ([]float64, error)) ([]float64, error) {
	trs, err := o.nodeTracesFor(app)
	if err != nil {
		return nil, err
	}
	perNode, err := parallel.Map(len(trs), func(n int) ([]float64, error) {
		return f(n, trs[n])
	})
	if err != nil {
		return nil, err
	}
	var sum []float64
	for _, vals := range perNode {
		if sum == nil {
			sum = make([]float64, len(vals))
		}
		for i, v := range vals {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(len(trs))
	}
	return sum, nil
}

// Experiment names, in paper order; the ablations extend the paper's
// own future-work list.
var Names = []string{
	"table1", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "fig7", "fig8",
	"ablation-policies", "ablation-perprocess", "ablation-multiprog",
	"batchsweep", "svm-pipeline", "chaos", "overlap",
}

// aliases maps shorthand experiment names (t6, f7) to canonical ones.
var aliases = map[string]string{
	"t1": "table1", "t2": "table2", "t3": "table3", "t4": "table4",
	"t5": "table5", "t6": "table6", "t7": "table7", "t8": "table8",
	"f7": "fig7", "f8": "fig8",
}

// Canonical resolves an experiment name or shorthand alias.
func Canonical(name string) string {
	if full, ok := aliases[name]; ok {
		return full
	}
	return name
}

// Run executes the named experiment (canonical name or t1-t8/f7-f8
// shorthand) and writes its rendering to w.
func Run(name string, opts Options, w io.Writer) error {
	var (
		out stringer
		err error
	)
	switch Canonical(name) {
	case "table1":
		out = Table1()
	case "table2":
		out = Table2()
	case "table3":
		out, err = Table3(opts)
	case "table4":
		out, err = Table4(opts)
	case "table5":
		out, err = Table5(opts)
	case "table6":
		out, err = Table6(opts)
	case "table7":
		out, err = Table7(opts)
	case "table8":
		out, err = Table8(opts)
	case "fig7":
		out, err = Fig7(opts)
	case "fig8":
		var miss, cost stringer
		miss, cost, err = Fig8(opts)
		if err != nil {
			return err
		}
		if err := render(w, miss); err != nil {
			return err
		}
		return render(w, cost)
	case "ablation-policies":
		out, err = AblationPolicies(opts)
	case "ablation-perprocess":
		out, err = AblationPerProcess(opts)
	case "ablation-multiprog":
		out, err = AblationMultiprog(opts)
	case "batchsweep":
		out, err = BatchSweep(opts)
	case "svm-pipeline":
		out, err = SVMPipeline(opts)
	case "chaos":
		out, err = Chaos(opts)
	case "overlap":
		out, err = Overlap(opts)
	default:
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
	if err != nil {
		return err
	}
	return render(w, out)
}

// RunAll executes every experiment. The experiments are independent
// computations, so each renders into its own buffer on the worker
// pool; the buffers are written to w in paper order, making the output
// byte-identical to a sequential run.
func RunAll(opts Options, w io.Writer) error {
	outs, err := parallel.Map(len(Names), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "=== %s ===\n", Names[i])
		if err := Run(Names[i], opts, &buf); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", Names[i], err)
		}
		fmt.Fprintln(&buf)
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	for _, out := range outs {
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	return nil
}

type stringer interface{ String() string }

func render(w io.Writer, s stringer) error {
	_, err := io.WriteString(w, s.String())
	return err
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
