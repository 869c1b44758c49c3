package experiments

import (
	"fmt"

	"utlb/internal/core"
	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/trace"
	"utlb/internal/workload"
)

// cacheSizes is the 1K-16K sweep of Tables 4, 5 and 8.
var cacheSizes = []int{1024, 2048, 4096, 8192, 16384}

func sizeLabel(entries int) string {
	if entries >= 1024 {
		return fmt.Sprintf("%dK", entries/1024)
	}
	return fmt.Sprintf("%d", entries)
}

// scaledSizes shrinks the cache sweep along with the workload so
// reduced-scale runs keep the same footprint-to-cache ratios.
func scaledSizes(opts Options) []int {
	s := opts.scale()
	if s >= 1 {
		return cacheSizes
	}
	out := make([]int, len(cacheSizes))
	for i, e := range cacheSizes {
		v := 16
		for float64(v) < float64(e)*s {
			v *= 2
		}
		out[i] = v
	}
	return out
}

// Table3 reports each application's problem size, communication
// memory footprint and translation-lookup count, measured from the
// generated traces — reproducing "Table 3".
func Table3(opts Options) (*stats.Table, error) {
	tbl := stats.NewTable(
		"Table 3: application problem size, communication footprint, lookups",
		"application", "problem size", "footprint (4KB pages)", "# translation lookups")
	apps := opts.apps()
	rows, err := parallel.Map(len(apps), func(i int) ([]string, error) {
		app := apps[i]
		tr, err := opts.traceFor(app)
		if err != nil {
			return nil, err
		}
		spec, err := workload.ByName(app)
		if err != nil {
			return nil, err
		}
		return []string{app, spec.ProblemSize,
			fmt.Sprintf("%d", tr.Footprint()),
			fmt.Sprintf("%d", tr.Lookups())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// comparisonTable renders the Table 4/5 layout: per cache size and
// application, check misses / NI misses / unpins per lookup for UTLB
// and the interrupt baseline. The (cache size x application) grid fans
// out on the worker pool; each cell is itself a node-averaged pair of
// simulation runs.
func comparisonTable(opts Options, expName, title string, pinLimitPages int) (*stats.Table, error) {
	apps := opts.apps()
	header := []string{"cache", "characteristic (per lookup)"}
	for _, app := range apps {
		header = append(header, app+" UTLB", app+" Intr")
	}
	tbl := stats.NewTable(title, header...)
	sizes := scaledSizes(opts)

	cells, err := parallel.Map(len(sizes)*len(apps), func(i int) ([]float64, error) {
		entries := sizes[i/len(apps)]
		app := apps[i%len(apps)]
		// Per-node averages, as the paper reports (§6.2).
		return opts.avgOver(app, func(node int, tr trace.Trace) ([]float64, error) {
			cfg := opts.simConfig()
			cfg.CacheEntries = entries
			cfg.PinLimitPages = pinLimitPages
			u, err := opts.simulate(tr, cfg, fmt.Sprintf("%s/%s/%s/utlb/n%d",
				expName, app, sizeLabel(entries), node))
			if err != nil {
				return nil, fmt.Errorf("%s UTLB %d: %w", app, entries, err)
			}
			cfg.Mechanism = sim.Interrupt
			i, err := opts.simulate(tr, cfg, fmt.Sprintf("%s/%s/%s/intr/n%d",
				expName, app, sizeLabel(entries), node))
			if err != nil {
				return nil, fmt.Errorf("%s Intr %d: %w", app, entries, err)
			}
			return []float64{
				u.CheckMissRate(),
				u.NIMissRate(), i.NIMissRate(),
				u.UnpinRate(), i.UnpinRate(),
			}, nil
		})
	})
	if err != nil {
		return nil, err
	}

	for si, entries := range sizes {
		rows := [3][]string{
			{sizeLabel(entries), "check misses"},
			{"", "NI misses"},
			{"", "unpins"},
		}
		for ai := range apps {
			avg := cells[si*len(apps)+ai]
			rows[0] = append(rows[0], fmt.Sprintf("%.2f", avg[0]), "-")
			rows[1] = append(rows[1], fmt.Sprintf("%.2f", avg[1]), fmt.Sprintf("%.2f", avg[2]))
			rows[2] = append(rows[2], fmt.Sprintf("%.2f", avg[3]), fmt.Sprintf("%.2f", avg[4]))
		}
		for _, row := range rows {
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}

// Table4 compares UTLB against the interrupt baseline with infinite
// host memory — reproducing "Table 4: Average translation overhead
// breakdown: UTLB vs. Intr (infinite host memory, direct-mapped
// translation cache with cache index offsetting, and no prefetch)".
func Table4(opts Options) (*stats.Table, error) {
	return comparisonTable(opts, "table4",
		"Table 4: UTLB vs Intr per-lookup overheads (infinite host memory, direct-mapped+offset, no prefetch)",
		0)
}

// Table5 repeats Table 4 under a 4 MB (1024-page) per-process pin
// quota — reproducing "Table 5".
func Table5(opts Options) (*stats.Table, error) {
	limit := scaleLimit(1024, opts)
	return comparisonTable(opts, "table5",
		"Table 5: UTLB vs Intr per-lookup overheads (4 MB host memory per process, direct-mapped+offset, no prefetch)",
		limit)
}

// scaleLimit shrinks a pin quota along with the workload scale.
func scaleLimit(pages int, opts Options) int {
	v := int(float64(pages) * opts.scale())
	if v < 8 {
		v = 8
	}
	return v
}

// Table6 reports the measured average translation lookup cost for
// Barnes and FFT at 1K/4K/16K cache entries — reproducing "Table 6:
// Average lookup cost comparison: UTLB vs. Intr."
func Table6(opts Options) (*stats.Table, error) {
	apps := []string{"barnes", "fft"}
	tbl := stats.NewTable(
		"Table 6: average lookup cost, UTLB vs Intr (us; infinite host memory, no prefetch, index offsetting)",
		"cache entries", "barnes UTLB", "barnes Intr", "fft UTLB", "fft Intr")
	all := scaledSizes(opts)
	sizes := []int{all[0], all[2], all[4]}

	cells, err := parallel.Map(len(sizes)*len(apps), func(i int) ([]string, error) {
		entries := sizes[i/len(apps)]
		app := apps[i%len(apps)]
		tr, err := opts.traceFor(app)
		if err != nil {
			return nil, err
		}
		cfg := opts.simConfig()
		cfg.CacheEntries = entries
		u, err := opts.simulate(tr, cfg, fmt.Sprintf("table6/%s/%s/utlb", app, sizeLabel(entries)))
		if err != nil {
			return nil, err
		}
		cfg.Mechanism = sim.Interrupt
		ir, err := opts.simulate(tr, cfg, fmt.Sprintf("table6/%s/%s/intr", app, sizeLabel(entries)))
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("%.1f", u.AvgLookupCost().Micros()),
			fmt.Sprintf("%.1f", ir.AvgLookupCost().Micros()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for si, entries := range sizes {
		row := []string{sizeLabel(entries)}
		for ai := range apps {
			row = append(row, cells[si*len(apps)+ai]...)
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// Table7 compares one-page pinning against 16-page sequential
// pre-pinning under a 16 MB pin quota, reporting amortized pin and
// unpin cost per lookup — reproducing "Table 7: Amortized pinning and
// unpinning for different page-pinning strategy."
func Table7(opts Options) (*stats.Table, error) {
	apps := []string{"barnes", "radix", "raytrace", "water-spatial", "fft", "lu"}
	if len(opts.Apps) > 0 {
		apps = opts.Apps
	}
	header := append([]string{"cost", "pages"}, apps...)
	tbl := stats.NewTable(
		"Table 7: amortized pin/unpin cost per lookup (us; 16 MB pin limit per process)",
		header...)
	limit := scaleLimit(4096, opts) // 16 MB of 4 KB pages per process

	// One run per (app, prepin) serves both pin and unpin rows.
	prepins := []int{1, 16}
	runs, err := parallel.Map(len(apps)*len(prepins), func(i int) (sim.Result, error) {
		app := apps[i/len(prepins)]
		prepin := prepins[i%len(prepins)]
		tr, err := opts.traceFor(app)
		if err != nil {
			return sim.Result{}, err
		}
		cfg := opts.simConfig()
		cfg.PinLimitPages = limit
		cfg.Prepin = prepin
		if opts.scale() < 1 {
			cfg.CacheEntries = scaledSizes(opts)[3]
		}
		res, err := opts.simulate(tr, cfg, fmt.Sprintf("table7/%s/prepin%d", app, prepin))
		if err != nil {
			return sim.Result{}, fmt.Errorf("table7 %s prepin=%d: %w", app, prepin, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := []struct {
		label string
		get   func(sim.Result) float64
	}{
		{"pin", func(r sim.Result) float64 { return r.AmortizedPinCost().Micros() }},
		{"unpin", func(r sim.Result) float64 { return r.AmortizedUnpinCost().Micros() }},
	}
	for _, rk := range rows {
		for pi, prepin := range prepins {
			row := []string{rk.label, fmt.Sprintf("%d", prepin)}
			for ai := range apps {
				row = append(row, fmt.Sprintf("%.1f", rk.get(runs[ai*len(prepins)+pi])))
			}
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}

// Table8 sweeps cache size against associativity (direct-mapped with
// offsetting, 2-way, 4-way, and direct-mapped without offsetting) and
// reports overall Shared UTLB-Cache miss rates — reproducing "Table 8".
func Table8(opts Options) (*stats.Table, error) {
	type assoc struct {
		label  string
		ways   int
		offset bool
	}
	assocs := []assoc{
		{"direct", 1, true},
		{"2-way", 2, true},
		{"4-way", 4, true},
		{"direct-nohash", 1, false},
	}
	apps := opts.apps()
	header := append([]string{"cache", "associativity"}, apps...)
	tbl := stats.NewTable(
		"Table 8: overall miss rates in Shared UTLB-Cache (infinite host memory, no prefetch, index offsetting except direct-nohash)",
		header...)
	sizes := scaledSizes(opts)

	cells, err := parallel.Map(len(sizes)*len(assocs)*len(apps), func(i int) (float64, error) {
		entries := sizes[i/(len(assocs)*len(apps))]
		a := assocs[i/len(apps)%len(assocs)]
		app := apps[i%len(apps)]
		avg, err := opts.avgOver(app, func(node int, tr trace.Trace) ([]float64, error) {
			cfg := opts.simConfig()
			cfg.CacheEntries = entries
			cfg.Ways = a.ways
			cfg.IndexOffset = a.offset
			res, err := opts.simulate(tr, cfg, fmt.Sprintf("table8/%s/%s/%s/n%d",
				app, a.label, sizeLabel(entries), node))
			if err != nil {
				return nil, fmt.Errorf("table8 %s %s %d: %w", app, a.label, entries, err)
			}
			return []float64{res.NIMissRatio()}, nil
		})
		if err != nil {
			return 0, err
		}
		return avg[0], nil
	})
	if err != nil {
		return nil, err
	}

	for si, entries := range sizes {
		for ai, a := range assocs {
			label := ""
			if ai == 0 {
				label = sizeLabel(entries)
			}
			row := []string{label, a.label}
			for appi := range apps {
				row = append(row, fmt.Sprintf("%.2f", cells[(si*len(assocs)+ai)*len(apps)+appi]))
			}
			tbl.AddRow(row...)
		}
	}
	return tbl, nil
}

// AblationPolicies sweeps the five user-level replacement policies of
// §3.4 under memory pressure — the study the paper leaves as future
// work ("we only used LRU policy in this study").
func AblationPolicies(opts Options) (*stats.Table, error) {
	apps := opts.apps()
	tbl := stats.NewTable(
		"Ablation: replacement policies under a 4 MB pin quota (unpins per lookup / avg lookup cost us)",
		append([]string{"policy"}, apps...)...)
	limit := scaleLimit(1024, opts)
	policies := []core.PolicyKind{core.LRU, core.MRU, core.LFU, core.MFU, core.Random}

	cells, err := parallel.Map(len(policies)*len(apps), func(i int) (string, error) {
		pol := policies[i/len(apps)]
		app := apps[i%len(apps)]
		tr, err := opts.traceFor(app)
		if err != nil {
			return "", err
		}
		cfg := opts.simConfig()
		cfg.Policy = pol
		cfg.PinLimitPages = limit
		if opts.scale() < 1 {
			cfg.CacheEntries = scaledSizes(opts)[3]
		}
		res, err := opts.simulate(tr, cfg, fmt.Sprintf("ablation-policies/%s/%s", pol, app))
		if err != nil {
			return "", fmt.Errorf("policies %s %s: %w", pol, app, err)
		}
		return fmt.Sprintf("%.2f/%.1f", res.UnpinRate(), res.AvgLookupCost().Micros()), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range policies {
		row := []string{pol.String()}
		row = append(row, cells[pi*len(apps):(pi+1)*len(apps)]...)
		tbl.AddRow(row...)
	}
	return tbl, nil
}
