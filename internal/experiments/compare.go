package experiments

import (
	"fmt"

	"utlb/internal/obs"
	"utlb/internal/parallel"
	"utlb/internal/sim"
	"utlb/internal/stats"
	"utlb/internal/trace"
)

// CompareTrace runs the paper's head-to-head comparison (UTLB vs the
// interrupt baseline, Table 4 layout) on an arbitrary trace — a file
// captured elsewhere, or one recorded from the SVM layer. Cache sizes
// sweep 1K-16K entries as in the paper; pinLimitPages of 0 means
// unconstrained memory. col, when non-nil, collects each run's event
// timeline.
func CompareTrace(tr trace.Trace, seed int64, pinLimitPages int, col *obs.Collector) (*stats.Table, error) {
	tbl := stats.NewTable(
		fmt.Sprintf("UTLB vs Intr on supplied trace (%d lookups, %d-page footprint, pin limit %d)",
			tr.Lookups(), tr.Footprint(), pinLimitPages),
		"cache", "UTLB check misses", "NI misses (both)", "UTLB unpins", "Intr unpins",
		"UTLB lookup us", "Intr lookup us")
	opts := Options{Seed: seed, Obs: col}
	rows, err := parallel.Map(len(cacheSizes), func(si int) ([]string, error) {
		entries := cacheSizes[si]
		cfg := opts.simConfig()
		cfg.CacheEntries = entries
		cfg.PinLimitPages = pinLimitPages
		u, err := opts.simulate(tr, cfg, fmt.Sprintf("compare/%s/utlb", sizeLabel(entries)))
		if err != nil {
			return nil, fmt.Errorf("compare UTLB %d: %w", entries, err)
		}
		cfg.Mechanism = sim.Interrupt
		i, err := opts.simulate(tr, cfg, fmt.Sprintf("compare/%s/intr", sizeLabel(entries)))
		if err != nil {
			return nil, fmt.Errorf("compare Intr %d: %w", entries, err)
		}
		return []string{sizeLabel(entries),
			fmt.Sprintf("%.2f", u.CheckMissRate()),
			fmt.Sprintf("%.2f/%.2f", u.NIMissRate(), i.NIMissRate()),
			fmt.Sprintf("%.2f", u.UnpinRate()),
			fmt.Sprintf("%.2f", i.UnpinRate()),
			fmt.Sprintf("%.1f", u.AvgLookupCost().Micros()),
			fmt.Sprintf("%.1f", i.AvgLookupCost().Micros())}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl, nil
}
