package sim

import (
	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/intrbase"
	"utlb/internal/tlbcache"
	"utlb/internal/trace"
	"utlb/internal/units"
)

// design is the seam between RunWith's one per-record loop and a
// translation mechanism. Adding a design is one type implementing it,
// one Mechanism constant and one row in the designs table.
type design interface {
	// register admits a spawned process; slots count up from 0 in PID
	// order, and prepare names the process by the same slot.
	register(slot int, proc *hostos.Process) error
	// prepare does rec's host-side work before the doorbell.
	prepare(slot int, rec trace.Record) error
	// translate resolves one batch of the prepared record's pages on
	// the NIC, setting hits[i] for each page the NIC found without a
	// miss.
	translate(pid units.ProcID, vpns []units.VPN, hits []bool) error
	// stats reports the host-side counters at the end of the run.
	stats() core.LibStats
}

// utlbDesign is the Hierarchical-UTLB with a Shared UTLB-Cache
// (§3.2-3.3): each process' user-level library checks and pins the
// buffer before the doorbell, and the firmware translates through the
// shared cache, filling misses by DMA from the host tables.
type utlbDesign struct {
	r    *run
	drv  *core.Driver
	tr   *core.Translator
	libs []*core.Lib
}

func newUTLBDesign(r *run, procs int) (design, error) {
	drv, err := core.NewDriverWith(r.host, r.nic, r.cfg.cacheConfig(), r.scr.storage())
	if err != nil {
		return nil, err
	}
	drv.Cache().Instrument(r.rec, r.nic.Clock(), 0)
	drv.Cache().SetXferCursor(r.xc)
	return &utlbDesign{r: r, drv: drv, tr: core.NewTranslator(drv, r.cfg.Prefetch),
		libs: make([]*core.Lib, 0, procs)}, nil
}

func (d *utlbDesign) register(slot int, proc *hostos.Process) error {
	cfg := d.r.cfg
	lib, err := core.NewLib(d.drv, proc, core.LibConfig{
		Policy: cfg.Policy, PolicySeed: cfg.Seed, Prepin: cfg.Prepin,
		Recorder: d.r.rec, Xfer: d.r.xc, Scratch: d.r.scr.libScratch(slot),
	})
	if err != nil {
		return err
	}
	d.libs = append(d.libs, lib)
	return nil
}

func (d *utlbDesign) prepare(slot int, rec trace.Record) error {
	return d.libs[slot].Lookup(rec.VA, int(rec.Bytes))
}

func (d *utlbDesign) translate(pid units.ProcID, vpns []units.VPN, hits []bool) error {
	d.tr.TranslateBatch(pid, vpns, hits)
	return nil
}

func (d *utlbDesign) stats() core.LibStats { return sumStats(d.libs) }

// intrDesign is the interrupt-per-miss baseline (§6.2): no host-side
// work before the doorbell; every NIC cache miss interrupts the host,
// whose handler pins the page and installs it.
type intrDesign struct {
	mech *intrbase.Mechanism
}

func newIntrDesign(r *run, _ int) (design, error) {
	mech, err := intrbase.NewWith(r.host, r.nic, r.cfg.cacheConfig(), r.scr.storage())
	if err != nil {
		return nil, err
	}
	mech.Cache().Instrument(r.rec, r.nic.Clock(), 0)
	mech.Cache().SetXferCursor(r.xc)
	return &intrDesign{mech: mech}, nil
}

func (d *intrDesign) register(_ int, proc *hostos.Process) error { return d.mech.Register(proc) }

func (d *intrDesign) prepare(int, trace.Record) error { return nil }

func (d *intrDesign) translate(pid units.ProcID, vpns []units.VPN, hits []bool) error {
	cache := d.mech.Cache()
	for i, vpn := range vpns {
		misses := cache.Misses()
		if _, err := d.mech.Translate(pid, vpn); err != nil {
			return err
		}
		hits[i] = cache.Misses() == misses
	}
	return nil
}

func (d *intrDesign) stats() core.LibStats {
	st := d.mech.Stats()
	return core.LibStats{PagesPinned: st.PagesPinned, PagesUnpinned: st.PagesUnpinned, PinTime: st.HandlerTime}
}

// perProcDesign is the Per-process UTLB (§3.1): the user-level lookup
// tree finds (or pins and installs) each page's slot in the process'
// static NIC table before the doorbell, and the firmware reads the
// slot with one SRAM probe, so the NIC never misses.
type perProcDesign struct {
	r     *run
	drv   *core.Driver
	utlbs []*core.PerProcessUTLB
	// cur, first and slots describe the record last prepared: its
	// process' UTLB, first page, and each page's table slot.
	cur   *core.PerProcessUTLB
	first units.VPN
	slots []int
}

func newPerProcDesign(r *run, procs int) (design, error) {
	// The driver needs a shared cache; this design never consults it.
	drv, err := core.NewDriverWith(r.host, r.nic, tlbcache.Config{Entries: 16, Ways: 1}, r.scr.storage())
	if err != nil {
		return nil, err
	}
	return &perProcDesign{r: r, drv: drv, utlbs: make([]*core.PerProcessUTLB, 0, procs)}, nil
}

func (d *perProcDesign) register(_ int, proc *hostos.Process) error {
	u, err := core.NewPerProcessUTLB(d.drv, proc, d.r.cfg.CacheEntries,
		core.LibConfig{Policy: d.r.cfg.Policy, PolicySeed: d.r.cfg.Seed})
	if err != nil {
		return err
	}
	d.utlbs = append(d.utlbs, u)
	return nil
}

func (d *perProcDesign) prepare(slot int, rec trace.Record) (err error) {
	d.cur, d.first = d.utlbs[slot], rec.VA.PageOf()
	d.slots, err = d.cur.Lookup(rec.VA, int(rec.Bytes))
	return err
}

func (d *perProcDesign) translate(_ units.ProcID, vpns []units.VPN, hits []bool) error {
	for i, vpn := range vpns {
		d.cur.Translate(d.slots[vpn-d.first])
		hits[i] = true
	}
	return nil
}

func (d *perProcDesign) stats() core.LibStats { return sumStats(d.utlbs) }

// sumStats totals the per-process host-side counters of a design's
// libraries.
func sumStats[L interface{ Stats() core.LibStats }](libs []L) core.LibStats {
	var sum core.LibStats
	for _, lib := range libs {
		st := lib.Stats()
		sum.CheckMisses += st.CheckMisses
		sum.PagesPinned += st.PagesPinned
		sum.PagesUnpinned += st.PagesUnpinned
		sum.PinTime += st.PinTime
		sum.UnpinTime += st.UnpinTime
		sum.CheckTime += st.CheckTime
	}
	return sum
}
