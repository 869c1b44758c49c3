package experiments

import (
	"fmt"

	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/svm"
)

// SVMPipeline reproduces the paper's methodology end to end on live
// kernels instead of synthetic generators: run SPMD programs under the
// home-based LRC SVM protocol on the simulated cluster (§6's trace
// source), capture the VMMC-level communication trace, and drive the
// trace simulator with it, comparing UTLB against the interrupt
// baseline.
func SVMPipeline(opts Options) (*stats.Table, error) {
	scale := opts.scale()
	size := func(full int) int {
		v := int(float64(full) * scale)
		if v < 64 {
			v = 64
		}
		return v
	}
	kernels := []struct {
		name string
		run  func(s *svm.System) error
	}{
		{"jacobi", func(s *svm.System) error {
			return svm.RunJacobi(s, size(16384), 6)
		}},
		{"transpose", func(s *svm.System) error {
			n := 64
			if scale < 0.1 {
				n = 24
			}
			return svm.RunTranspose(s, n)
		}},
		{"taskfarm", func(s *svm.System) error {
			return svm.RunTaskFarm(s, size(2000))
		}},
		{"sumreduce", func(s *svm.System) error {
			_, err := svm.RunSumReduce(s, size(8000))
			return err
		}},
	}

	tbl := stats.NewTable(
		"SVM pipeline: live kernels -> captured trace -> trace-driven comparison (1K-entry cache)",
		"kernel", "trace ops", "footprint", "UTLB miss rate", "UTLB unpins", "Intr unpins", "UTLB/Intr lookup cost us")

	// Each kernel runs on its own simulated cluster, so the pipeline
	// fans out per kernel on the worker pool.
	rows, err := parallel.Map(len(kernels), func(ki int) ([]string, error) {
		k := kernels[ki]
		sys, err := svm.New(svm.Config{Peers: 4, RegionPages: 64})
		if err != nil {
			return nil, err
		}
		if err := k.run(sys); err != nil {
			return nil, fmt.Errorf("svm pipeline %s: %w", k.name, err)
		}
		tr := sys.Trace()
		cfg := opts.simConfig()
		cfg.CacheEntries = 1024
		u, err := opts.simulate(tr, cfg, "svm-pipeline/"+k.name+"/utlb")
		if err != nil {
			return nil, err
		}
		cfg.Mechanism = sim.Interrupt
		i, err := opts.simulate(tr, cfg, "svm-pipeline/"+k.name+"/intr")
		if err != nil {
			return nil, err
		}
		return []string{k.name,
			fmt.Sprintf("%d", tr.Lookups()),
			fmt.Sprintf("%d", tr.Footprint()),
			fmt.Sprintf("%.2f", u.NIMissRate()),
			fmt.Sprintf("%.2f", u.UnpinRate()),
			fmt.Sprintf("%.2f", i.UnpinRate()),
			fmt.Sprintf("%.1f/%.1f", u.AvgLookupCost().Micros(), i.AvgLookupCost().Micros())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl, nil
}
