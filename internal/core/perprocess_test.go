package core

import (
	"errors"
	"testing"

	"utlb/internal/units"
	"utlb/internal/vm"
)

func newPP(t *testing.T, entries, pinLimit int) (*rig, *PerProcessUTLB) {
	t.Helper()
	r := newRig(t, 1024)
	proc, err := r.host.Spawn(1, "app", vm.NewSpace(1, r.host.Memory(), pinLimit))
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewPerProcessUTLB(r.drv, proc, entries, LibConfig{Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	return r, u
}

func TestLookupTreeBasics(t *testing.T) {
	r := newRig(t, 1024)
	tree := NewLookupTree(r.host.Costs(), r.host.Clock())
	if _, ok := tree.Lookup(5); ok {
		t.Error("hit in empty tree")
	}
	tree.Set(5, 42)
	if idx, ok := tree.Lookup(5); !ok || idx != 42 {
		t.Errorf("Lookup = %d, %v", idx, ok)
	}
	tree.Clear(5)
	if _, ok := tree.Lookup(5); ok {
		t.Error("cleared entry still present")
	}
	tree.Clear(99999) // clearing an absent leaf is a no-op
}

func TestLookupTreeChargesTwoReferences(t *testing.T) {
	r := newRig(t, 1024)
	tree := NewLookupTree(r.host.Costs(), r.host.Clock())
	before := r.host.Clock().Now()
	tree.Lookup(0)
	if got := r.host.Clock().Now() - before; got != 2*r.host.Costs().BitWordProbe {
		t.Errorf("lookup charged %v, want two word probes", got)
	}
}

func TestPerProcessLookupInstalls(t *testing.T) {
	_, u := newPP(t, 64, 0)
	idx, err := u.Lookup(0, 2*units.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] == noIndex || idx[1] == noIndex {
		t.Fatalf("indices = %v", idx)
	}
	st := u.Stats()
	if st.Lookups != 1 || st.CheckMisses != 1 || st.PagesPinned != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Indices resolve via the NIC path to the OS translations.
	for i, vpn := range []units.VPN{0, 1} {
		want, _ := u.proc.Space().Translate(vpn)
		if got := u.Translate(idx[i]); got != want {
			t.Errorf("Translate(idx %d) = %d, want %d", idx[i], got, want)
		}
	}
	// Repeat lookup returns the same indices, no new pins.
	idx2, _ := u.Lookup(0, 2*units.PageSize)
	if idx2[0] != idx[0] || idx2[1] != idx[1] {
		t.Errorf("indices changed: %v -> %v", idx, idx2)
	}
	if u.Stats().PagesPinned != 2 {
		t.Error("re-lookup pinned again")
	}
}

func TestPerProcessCapacityEviction(t *testing.T) {
	_, u := newPP(t, 4, 0) // tiny table forces capacity misses
	for i := 0; i < 8; i++ {
		if _, err := u.Lookup(units.VAddr(i)*units.PageSize, units.PageSize); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	st := u.Stats()
	if st.PagesUnpinned != 4 {
		t.Errorf("PagesUnpinned = %d, want 4", st.PagesUnpinned)
	}
	// Eviction also unpins — the per-process design cannot keep
	// translations alive outside its table, unlike Hierarchical-UTLB.
	if u.proc.Space().PinnedPages() != 4 {
		t.Errorf("OS pinned = %d, want 4", u.proc.Space().PinnedPages())
	}
}

func TestPerProcessPinQuotaEviction(t *testing.T) {
	_, u := newPP(t, 64, 2)
	for i := 0; i < 4; i++ {
		if _, err := u.Lookup(units.VAddr(i)*units.PageSize, units.PageSize); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if u.proc.Space().PinnedPages() != 2 {
		t.Errorf("pinned = %d", u.proc.Space().PinnedPages())
	}
}

func TestPerProcessGarbageIndexes(t *testing.T) {
	r, u := newPP(t, 8, 0)
	// Out-of-range and never-installed indices resolve to the garbage
	// frame — the §4.2 scheme that saves the NIC from validating
	// user-submitted indices.
	for _, idx := range []int{-1, 3, 8, 100} {
		if got := u.Translate(idx); got != r.drv.Garbage() {
			t.Errorf("Translate(%d) = %d, want garbage %d", idx, got, r.drv.Garbage())
		}
	}
}

func TestPerProcessSRAMAccounting(t *testing.T) {
	r := newRig(t, 1024)
	proc, _ := r.host.Spawn(1, "app", vm.NewSpace(1, r.host.Memory(), 0))
	free := r.nic.SRAMFree()
	if _, err := NewPerProcessUTLB(r.drv, proc, 128, LibConfig{Policy: LRU}); err != nil {
		t.Fatal(err)
	}
	want := free - 128*4 - DirSRAMBytes // table + driver registration
	if r.nic.SRAMFree() != want {
		t.Errorf("SRAMFree = %d, want %d", r.nic.SRAMFree(), want)
	}
}

func TestPerProcessTableSRAMExhaustion(t *testing.T) {
	// Many processes demanding big static tables exhaust NIC SRAM —
	// the motivation for the Shared UTLB-Cache (§3.2).
	r := newRig(t, 1024)
	var lastErr error
	for pid := units.ProcID(1); pid <= 64; pid++ {
		proc, err := r.host.Spawn(pid, "app", vm.NewSpace(pid, r.host.Memory(), 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPerProcessUTLB(r.drv, proc, 8192, LibConfig{Policy: LRU}); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Error("64 x 8K-entry static tables fit in 1 MB SRAM; expected exhaustion")
	}
}

func TestPerProcessBadEntries(t *testing.T) {
	r := newRig(t, 1024)
	proc, _ := r.host.Spawn(1, "app", vm.NewSpace(1, r.host.Memory(), 0))
	if _, err := NewPerProcessUTLB(r.drv, proc, 0, LibConfig{Policy: LRU}); err == nil {
		t.Error("zero-entry table accepted")
	}
}

func TestPerProcessNoVictim(t *testing.T) {
	_, u := newPP(t, 1, 0)
	if _, err := u.Lookup(0, units.PageSize); err != nil {
		t.Fatal(err)
	}
	u.policy.Lock(0)
	_, err := u.Lookup(units.PageSize, units.PageSize)
	if !errors.Is(err, ErrNoVictim) {
		t.Errorf("err = %v, want ErrNoVictim", err)
	}
}

func TestPerProcessZeroByteLookup(t *testing.T) {
	_, u := newPP(t, 8, 0)
	idx, err := u.Lookup(0, 0)
	if err != nil || idx != nil {
		t.Errorf("Lookup(0,0) = %v, %v", idx, err)
	}
}

func TestPerProcessFragmentation(t *testing.T) {
	// A fresh table hands out descending free slots, so a multi-page
	// buffer's indices are non-consecutive from the start; after
	// churny single-page evictions, later multi-page lookups stay
	// scattered. Hierarchical-UTLB has no such indices at all.
	_, u := newPP(t, 8, 0)
	if u.Fragmentation() != 0 {
		t.Error("fragmentation before any lookup")
	}
	if _, err := u.Lookup(0, 4*units.PageSize); err != nil {
		t.Fatal(err)
	}
	frag := u.Fragmentation()
	if frag < 0 || frag > 1 {
		t.Fatalf("fragmentation out of range: %v", frag)
	}
	// Fill the table (pages 0-7 in slots 0-7), then touch the odd
	// pages so the even ones become eviction victims. The next
	// multi-page buffer inherits the scattered even slots.
	if _, err := u.Lookup(4*units.PageSize, 4*units.PageSize); err != nil {
		t.Fatal(err)
	}
	for _, pg := range []units.VAddr{1, 3, 5, 7} {
		if _, err := u.Lookup(pg*units.PageSize, units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := u.Lookup(64*units.PageSize, 4*units.PageSize); err != nil {
		t.Fatal(err)
	}
	if u.Fragmentation() == 0 {
		t.Error("no fragmentation recorded after churn")
	}
}

// TestLookupOutsideAddressSpace: both user-level libraries reject a
// buffer past the VASpacePages address space (or one whose page span
// wraps) with an error, leaving no lookup counted, instead of
// panicking in the bit vector or the translation table.
func TestLookupOutsideAddressSpace(t *testing.T) {
	r, u := newPP(t, 8, 0)
	lib := r.spawnLib(t, 2, 0, LibConfig{Policy: LRU})
	bad := []struct {
		va     units.VAddr
		nbytes int
	}{
		{VASpacePages * units.PageSize, units.PageSize},
		{(VASpacePages - 1) * units.PageSize, 2 * units.PageSize},
		{0xFFFFFFFFFFFFF000, 2 * units.PageSize},
	}
	for _, b := range bad {
		if _, err := u.Lookup(b.va, b.nbytes); err == nil {
			t.Errorf("per-process Lookup(%#x, %d) accepted", b.va, b.nbytes)
		}
		if err := lib.Lookup(b.va, b.nbytes); err == nil {
			t.Errorf("Lib.Lookup(%#x, %d) accepted", b.va, b.nbytes)
		}
	}
	if u.Stats().Lookups != 0 || lib.Stats().Lookups != 0 {
		t.Errorf("rejected lookups counted: per-process %d, lib %d", u.Stats().Lookups, lib.Stats().Lookups)
	}
	// The last page of the space is still addressable.
	if err := lib.Lookup((VASpacePages-1)*units.PageSize, units.PageSize); err != nil {
		t.Errorf("last page rejected: %v", err)
	}
}
