package experiments

import (
	"fmt"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/parallel"
	"utlb/internal/stats"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// pageCounts is the 1..32 sweep both micro-benchmark tables use.
var pageCounts = []int{1, 2, 4, 8, 16, 32}

// microRig builds a one-node bench: host, NIC, driver, one process.
type microRig struct {
	host *hostos.Host
	nic  *nicsim.NIC
	drv  *core.Driver
	proc *hostos.Process
	lib  *core.Lib
}

func newMicroRig(prefetch int) (*microRig, *core.Translator, error) {
	host := hostos.New(0, 64*units.MB, hostos.DefaultCosts())
	clk := units.NewClock()
	b := bus.New(host.Memory(), clk, bus.DefaultCosts())
	nic := nicsim.New(0, units.MB, clk, b, nicsim.DefaultCosts())
	drv, err := core.NewDriver(host, nic, tlbcache.Config{Entries: 8192, Ways: 1, IndexOffset: true})
	if err != nil {
		return nil, nil, err
	}
	proc, err := host.Spawn(1, "bench", vm.NewSpace(1, host.Memory(), 0))
	if err != nil {
		return nil, nil, err
	}
	lib, err := core.NewLib(drv, proc, core.LibConfig{Policy: core.LRU})
	if err != nil {
		return nil, nil, err
	}
	return &microRig{host: host, nic: nic, drv: drv, proc: proc, lib: lib},
		core.NewTranslator(drv, prefetch), nil
}

// Table1 measures the UTLB host-side operations — user-level lookup
// (check), page pinning, and page unpinning — against simulated time,
// reproducing "Table 1: UTLB overhead on the host processor."
// Check min/max sweep the first bit's position, as the paper does.
func Table1() *stats.Table {
	tbl := stats.NewTable(
		"Table 1: UTLB overhead on the host processor (us)",
		"num pages", "check min", "check max", "pin", "unpin")
	costs := hostos.DefaultCosts()

	// Each page count measures against its own fresh clocks and hosts,
	// so the sweep fans out on the worker pool.
	rows, err := parallel.Map(len(pageCounts), func(pi int) ([]string, error) {
		pages := pageCounts[pi]
		// Check: sweep start positions 0..63 within a fully pinned
		// region and record the extremes.
		var minT, maxT units.Time = 1 << 62, 0
		for start := 0; start < 64; start++ {
			clk := units.NewClock()
			bv := core.NewBitVector(1<<16, costs, clk)
			bv.Set(0, 128+pages) // region pinned regardless of start
			t0 := clk.Now()
			bv.Check(units.VPN(start), pages)
			d := clk.Now() - t0
			if d < minT {
				minT = d
			}
			if d > maxT {
				maxT = d
			}
		}

		// Pin/unpin: fresh process, measure the ioctl round trip.
		host := hostos.New(0, 16*units.MB, costs)
		proc, err := host.Spawn(1, "bench", vm.NewSpace(1, host.Memory(), 0))
		if err != nil {
			panic(err)
		}
		vpns := make([]units.VPN, pages)
		for i := range vpns {
			vpns[i] = units.VPN(i)
		}
		t0 := host.Clock().Now()
		if _, err := host.PinPages(proc, vpns); err != nil {
			panic(err)
		}
		pinT := host.Clock().Now() - t0
		t0 = host.Clock().Now()
		if err := host.UnpinPages(proc, vpns); err != nil {
			panic(err)
		}
		unpinT := host.Clock().Now() - t0

		return []string{fmt.Sprintf("%d", pages),
			fmt.Sprintf("%.1f", minT.Micros()),
			fmt.Sprintf("%.1f", maxT.Micros()),
			fmt.Sprintf("%.0f", pinT.Micros()),
			fmt.Sprintf("%.0f", unpinT.Micros())}, nil
	})
	if err != nil {
		panic(err) // measurement errors already panic above
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl
}

// Table2 measures the network-interface operations — translation hit
// cost, entry-fetch DMA cost, and total miss-handling cost as a
// function of the number of entries prefetched — reproducing "Table 2:
// UTLB overhead on the network interface."
func Table2() *stats.Table {
	tbl := stats.NewTable(
		"Table 2: UTLB overhead on the network interface (us)",
		"num entries", "DMA cost", "total miss cost", "hit cost")

	// Each entry count builds its own rig (host, NIC, clocks), so the
	// sweep fans out on the worker pool.
	rows, err := parallel.Map(len(pageCounts), func(pi int) ([]string, error) {
		entries := pageCounts[pi]
		rig, tr, err := newMicroRig(entries)
		if err != nil {
			panic(err)
		}
		// Pin a contiguous region so prefetched entries are valid.
		if err := rig.lib.Lookup(0, 64*units.PageSize); err != nil {
			panic(err)
		}
		clk := rig.nic.Clock()

		// Cold translate: the full miss path with `entries` prefetch.
		t0 := clk.Now()
		if _, info := tr.Translate(1, 0); info.Hit {
			panic("experiments: expected cold miss")
		}
		missTotal := clk.Now() - t0

		// Warm translate: the hit path.
		t0 = clk.Now()
		if _, info := tr.Translate(1, 0); !info.Hit {
			panic("experiments: expected warm hit")
		}
		hit := clk.Now() - t0

		// DMA-only component, as the paper itemises it.
		dma := rig.nic.Bus().Costs().EntryFetchCost(entries)

		return []string{fmt.Sprintf("%d", entries),
			fmt.Sprintf("%.1f", dma.Micros()),
			fmt.Sprintf("%.1f", (missTotal - hit).Micros()),
			fmt.Sprintf("%.1f", hit.Micros())}, nil
	})
	if err != nil {
		panic(err) // measurement errors already panic above
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl
}
