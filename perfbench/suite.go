package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"utlb/internal/experiments"
	"utlb/internal/parallel"
	"utlb/internal/workload"
)

// suiteScale is the trace scale of the suite workload: every
// experiment of the paper at 0.1× its trace size, under 1 s per pass
// on two CPUs, so one run measures tens of passes.
const suiteScale = 0.1

// suiteSeeds is how many input sets a suite run cycles through: pass i
// runs on the traces of seed·suiteSeeds + i mod suiteSeeds. How long the
// experiments take depends on the traces a seed draws (by up to 25 %
// for the long pole, table7), so a run's median spans several input
// sets rather than resting on one.
const suiteSeeds = 8

// suite runs every experiment in experiments.Names through
// experiments.Run on the worker pool, as `utlbsim -exp all` does. Each
// pass starts from an empty trace store, paying the cold trace
// generation every utlbsim invocation pays.
type suite struct {
	opts    experiments.Options
	digests [suiteSeeds][sha256.Size]byte // output digest per input set
	passes  int

	records int64   // records one setup generates
	passIDs []int64 // traced pass span ids
}

func newSuite(seed int64, scale float64) *suite {
	return &suite{opts: experiments.Options{Scale: scale, Seed: seed}}
}

// passOpts are the experiment options of pass i.
func (s *suite) passOpts(i int) experiments.Options {
	o := s.opts
	o.Seed = s.opts.Seed*suiteSeeds + int64(i%suiteSeeds)
	return o
}

// setup generates, cold, the seven application traces the
// experiments share (node 0 of each Table 3 application) for each
// input set. The timed passes pay this generation again, inside the
// experiments and for every node they simulate, because the trace
// store is reset before each.
func (s *suite) setup(t *tally, sp *spans) error {
	workload.ResetTraceStore()
	s.records = 0
	for i := 0; i < suiteSeeds; i++ {
		o := s.passOpts(i)
		for _, spec := range workload.Specs() {
			t0 := time.Now()
			tr := spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: o.Seed, Scale: o.Scale})
			t1 := time.Now()
			sp.add("workload.Generate/"+spec.Name, 0, 0, t0, t1)
			s.records += int64(len(tr))
			t.check(len(tr) > 0, "suite: %s generated an empty trace", spec.Name)
		}
	}
	return nil
}

// suiteOut is one experiment's outcome within a pass.
type suiteOut struct {
	out []byte
	err error
	dur time.Duration
}

func (s *suite) pass(t *tally, sp *spans) (passStats, error) {
	outs, ps, err := s.runOnce(s.passOpts(s.passes), sp)
	if err != nil {
		return ps, err
	}
	for i, o := range outs {
		t.check(o.err == nil && len(o.out) > 0, "suite: %s: err=%v, %d bytes", experiments.Names[i], o.err, len(o.out))
	}
	d, set := digest(outs), s.passes%suiteSeeds
	if s.passes < suiteSeeds {
		s.digests[set] = d
	}
	t.check(d == s.digests[set], "suite: pass %d output differs from pass %d", s.passes, set)
	s.passes++
	return ps, nil
}

// runOnce runs every experiment once at the current pool width.
func (s *suite) runOnce(opts experiments.Options, sp *spans) ([]suiteOut, passStats, error) {
	workload.ResetTraceStore()
	t0 := time.Now()
	var passID int64
	if sp != nil {
		// Reserve the pass span first so experiment spans can name it
		// as their parent; its end is fixed up below.
		passID = sp.add("suite.pass", 0, 0, t0, t0)
		s.passIDs = append(s.passIDs, passID)
	}
	outs, err := parallel.Map(len(experiments.Names), func(i int) (suiteOut, error) {
		var buf bytes.Buffer
		e0 := time.Now()
		err := experiments.Run(experiments.Names[i], opts, &buf)
		e1 := time.Now()
		sp.add("experiments.Run/"+experiments.Names[i], passID, 0, e0, e1)
		return suiteOut{out: buf.Bytes(), err: err, dur: e1.Sub(e0)}, nil
	})
	if sp != nil {
		sp.setEnd(passID, time.Now())
	}
	var ps passStats
	for _, o := range outs {
		ps.reqs = append(ps.reqs, o.dur)
	}
	return outs, ps, err
}

// digestAt runs the suite once at pool width w and returns the digest
// of its output.
func (s *suite) digestAt(w int) ([sha256.Size]byte, error) {
	parallel.SetWorkers(w)
	defer parallel.SetWorkers(width)
	outs, _, err := s.runOnce(s.opts, nil)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	for i, o := range outs {
		if o.err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("%s: %w", experiments.Names[i], o.err)
		}
	}
	return digest(outs), nil
}

// digest hashes a pass's outputs as `utlbsim -exp all` prints them.
func digest(outs []suiteOut) [sha256.Size]byte {
	h := sha256.New()
	for i, o := range outs {
		fmt.Fprintf(h, "=== %s ===\n", experiments.Names[i])
		h.Write(o.out)
		fmt.Fprintln(h)
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// layers reports per-experiment times and pool utilisation from the
// traced passes' spans, and the trace generation they paid inside the
// experiments from the profile: CPU seconds per pass with
// workload.(*Spec).Generate on the stack.
func (s *suite) layers(t *tally, sp *spans, prof *attribution, m metrics) error {
	var util []float64
	perExp := map[string][]float64{}
	for _, id := range s.passIDs {
		pass := sp.get(id)
		var busy time.Duration
		for _, c := range sp.children(id) {
			busy += c.dur()
			perExp[c.Name] = append(perExp[c.Name], c.dur().Seconds())
		}
		util = append(util, busy.Seconds()/(pass.dur().Seconds()*width))
	}
	for _, name := range experiments.Names {
		m.set("experiments."+name+"_s", median(perExp["experiments.Run/"+name]), "s")
	}
	m.set("parallel.utilisation", median(util), "ratio")
	if len(s.passIDs) > 0 {
		m.set("workload.gen_s", float64(prof.genNS)/1e9/float64(len(s.passIDs)), "s")
	}
	m.set("workload.records", float64(s.records), "count")
	return nil
}

func (s *suite) close() { workload.ResetTraceStore() }
