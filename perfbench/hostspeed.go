package main

import (
	"time"

	"utlb/internal/parallel"
)

// Host-speed scaling. The reference machine is a shared VM whose speed
// drifts by up to 2.5× for minutes at a time as other tenants load the
// host, which would swamp any regression bound on a host time. The
// benchmark therefore times a fixed reference kernel of its own before
// and after every pass and set-up, and reports each host time scaled to
// the reference machine's nominal speed:
//
//	scaled = measured × refNominal / mean of the two kernel times
//
// The kernel's work calls no repository code, so a change to the
// program cannot move it; internal/parallel, the repository's one
// sanctioned source of goroutines, only spreads it over the CPUs. It
// does what the simulator's per-reference path does — random map
// inserts and lookups plus small allocations — on width goroutines at
// once, so host slowdowns that reach the workloads reach it too.

// refNominal is the reference kernel's time on the reference machine
// (2 vCPUs) at its usual speed.
const refNominal = 15 * time.Millisecond

// refOps is the map operations each kernel goroutine performs.
const refOps = 1 << 18

// refSink keeps the kernel's results live.
var refSink int

// refKernel runs the reference kernel on the worker pool (width wide)
// and returns its wall time.
func refKernel() time.Duration {
	t0 := time.Now()
	sizes, _ := parallel.Map(width, func(g int) (int, error) {
		m := make(map[uint64]uint64)
		var keep [][]uint64
		x := uint64(g + 1)
		for i := 0; i < refOps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			m[x>>49]++
			if i%256 == 0 {
				keep = append(keep, make([]uint64, 64))
			}
		}
		return len(m) + len(keep), nil
	})
	d := time.Since(t0)
	refSink = 0
	for _, n := range sizes {
		refSink += n
	}
	return d
}

// refTimes are reference kernel times, in seconds, taken before each
// of a series of measurements and once after the last.
type refTimes []float64

func (r *refTimes) take() { *r = append(*r, refKernel().Seconds()) }

// scale returns vs scaled to nominal host speed: each value by the
// mean of the kernel times taken just before and just after it.
func (r refTimes) scale(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * refNominal.Seconds() / ((r[i] + r[i+1]) / 2)
	}
	return out
}
