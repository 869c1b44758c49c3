package experiments

import (
	"fmt"

	"utlb/internal/parallel"
	"utlb/internal/stats"
	"utlb/internal/workload"
)

// AblationMultiprog studies the Shared UTLB-Cache under *independent*
// multiprogramming — the behaviour the paper's SPMD traces could not
// reveal (§7). Pairs of unrelated applications run interleaved on one
// node; the table reports the cache miss ratio of each application
// alone, the pair mixed, and the pair mixed without index offsetting,
// at the paper's default 8 K-entry direct-mapped cache.
func AblationMultiprog(opts Options) (*stats.Table, error) {
	pairs := [][2]string{
		{"fft", "barnes"},
		{"radix", "water-spatial"},
		{"raytrace", "volrend"},
	}
	if len(opts.Apps) == 2 {
		pairs = [][2]string{{opts.Apps[0], opts.Apps[1]}}
	}
	tbl := stats.NewTable(
		"Ablation: independent multiprogramming in the Shared UTLB-Cache (miss ratio; 8K direct-mapped)",
		"pair", "A alone", "B alone", "mixed", "mixed no-offset")

	entries := scaledSizes(opts)[3] // 8K at full scale

	rows, err := parallel.Map(len(pairs), func(i int) ([]string, error) {
		pair := pairs[i]
		specA, err := workload.ByName(pair[0])
		if err != nil {
			return nil, err
		}
		specB, err := workload.ByName(pair[1])
		if err != nil {
			return nil, err
		}
		cfg := opts.simConfig()
		cfg.CacheEntries = entries

		pairName := pair[0] + "+" + pair[1]
		// Each alone at half scale (matching its share of the mix).
		half := opts.scale() / 2
		aAlone, err := opts.simulate(specA.GenerateCached(workload.Config{
			Node: 0, FirstPID: 1, Seed: opts.Seed, Scale: half,
		}), cfg, "ablation-multiprog/"+pairName+"/a-alone")
		if err != nil {
			return nil, fmt.Errorf("multiprog %s alone: %w", pair[0], err)
		}
		bAlone, err := opts.simulate(specB.GenerateCached(workload.Config{
			Node: 0, FirstPID: 1, Seed: opts.Seed, Scale: half,
		}), cfg, "ablation-multiprog/"+pairName+"/b-alone")
		if err != nil {
			return nil, fmt.Errorf("multiprog %s alone: %w", pair[1], err)
		}

		mixTrace := workload.Multiprogram([]*workload.Spec{specA, specB}, 0, opts.Seed, opts.scale())
		mixed, err := opts.simulate(mixTrace, cfg, "ablation-multiprog/"+pairName+"/mixed")
		if err != nil {
			return nil, fmt.Errorf("multiprog mix: %w", err)
		}
		cfg.IndexOffset = false
		mixedNoOff, err := opts.simulate(mixTrace, cfg, "ablation-multiprog/"+pairName+"/mixed-nooffset")
		if err != nil {
			return nil, err
		}

		return []string{pairName,
			fmt.Sprintf("%.2f", aAlone.NIMissRatio()),
			fmt.Sprintf("%.2f", bAlone.NIMissRatio()),
			fmt.Sprintf("%.2f", mixed.NIMissRatio()),
			fmt.Sprintf("%.2f", mixedNoOff.NIMissRatio())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl, nil
}
