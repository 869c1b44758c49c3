package sim

import (
	"fmt"
	"strings"
	"testing"

	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// mechanisms lists every Mechanism value the simulator knows.
func mechanisms() []Mechanism {
	var ms []Mechanism
	for m := Mechanism(0); m.known(); m++ {
		ms = append(ms, m)
	}
	return ms
}

// TestRunRejectsBadRecords: a record no design can translate — an
// empty or negative buffer, or one whose page span wraps past 2^64 —
// fails the run with an error naming the record, under every design,
// instead of being counted differently per design or panicking.
func TestRunRejectsBadRecords(t *testing.T) {
	bad := []trace.Record{
		{Time: 1, PID: 1, VA: 0x2000, Bytes: 0},
		{Time: 1, PID: 1, VA: 0x2000, Bytes: -5},
		{Time: 1, PID: 1, VA: 0xFFFFFFFFFFFFF000, Bytes: 8192},
	}
	for _, rec := range bad {
		for _, m := range mechanisms() {
			t.Run(fmt.Sprintf("%v/%#x+%d", m, rec.VA, rec.Bytes), func(t *testing.T) {
				tr := trace.Trace{{Time: 0, PID: 1, VA: 0x1000, Bytes: 4096}, rec}
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				_, err := Run(tr, cfg(m, 64))
				if err == nil || !strings.Contains(err.Error(), "record 1") {
					t.Errorf("err = %v, want an error naming record 1", err)
				}
			})
		}
	}
}

// TestRunRejectsAddressBeyondSpace: a buffer past the 2^20-page
// address space the user-level structures cover fails the run rather
// than panicking; the interrupt baseline has no such structure and
// translates it.
func TestRunRejectsAddressBeyondSpace(t *testing.T) {
	tr := trace.Trace{{Time: 0, PID: 1, VA: 1 << 40, Bytes: 4096}}
	for _, m := range mechanisms() {
		_, err := Run(tr, cfg(m, 64))
		if wantErr := m != Interrupt; (err != nil) != wantErr {
			t.Errorf("%v: err = %v, want error %v", m, err, wantErr)
		}
	}
}

// TestConservationLaws checks the simulator's bookkeeping identities
// on every design, charging model, batch width and pin quota: every
// record is one lookup, every spanned page one NI reference, every NI
// miss gets exactly one 3C class, nothing is unpinned that was not
// pinned, and the overlap engine changes only where time is charged.
func TestConservationLaws(t *testing.T) {
	// tight is a per-process pin quota well under each trace's
	// per-process footprint, forcing evictions and unpins.
	traces := []struct {
		name  string
		tr    trace.Trace
		tight int
	}{
		{"bulk", workload.BulkTransfer(0, 1, 42, 0.05), 32},
		{"water-spatial", smallTrace(t, "water-spatial", 0.05), 6},
	}
	for _, tc := range traces {
		name, tr := tc.name, tc.tr
		var pages int64
		for _, rec := range tr {
			pages += int64(units.PagesSpanned(rec.VA, int(rec.Bytes)))
		}
		for _, m := range mechanisms() {
			for _, batch := range []int{1, 8} {
				for _, limit := range []int{0, tc.tight} {
					label := fmt.Sprintf("%s/%v/batch%d/limit%d", name, m, batch, limit)
					c := cfg(m, 256)
					c.BatchPages = batch
					c.PinLimitPages = limit
					seq, err := Run(tr, c)
					if err != nil {
						t.Fatalf("%s sequential: %v", label, err)
					}
					c.Overlap = OverlapConfig{Enabled: true, DMAChannels: 2}
					ovl, err := Run(tr, c)
					if err != nil {
						t.Fatalf("%s overlap: %v", label, err)
					}
					for mode, r := range map[string]Result{"seq": seq, "ovl": ovl} {
						if r.Lookups != int64(len(tr)) {
							t.Errorf("%s %s: Lookups = %d, want %d records", label, mode, r.Lookups, len(tr))
						}
						if r.NIRefs != pages {
							t.Errorf("%s %s: NIRefs = %d, want %d spanned pages", label, mode, r.NIRefs, pages)
						}
						if r.Compulsory+r.Capacity+r.Conflict != r.NIMisses {
							t.Errorf("%s %s: 3C %d+%d+%d != NIMisses %d",
								label, mode, r.Compulsory, r.Capacity, r.Conflict, r.NIMisses)
						}
						if r.Pins < r.Unpins {
							t.Errorf("%s %s: Pins %d < Unpins %d", label, mode, r.Pins, r.Unpins)
						}
					}
					if counters(seq) != counters(ovl) {
						t.Errorf("%s: counters diverged between modes:\nseq: %+v\novl: %+v", label, counters(seq), counters(ovl))
					}
					if ovl.Makespan > seq.Makespan {
						t.Errorf("%s: overlap makespan %v > sequential %v", label, ovl.Makespan, seq.Makespan)
					}
				}
			}
		}
	}
}

// counters is r with every timing field cleared: what a run did, not
// when.
func counters(r Result) Result {
	return Result{
		Lookups: r.Lookups, CheckMisses: r.CheckMisses, NIMisses: r.NIMisses, NIRefs: r.NIRefs,
		Pins: r.Pins, Unpins: r.Unpins,
		Compulsory: r.Compulsory, Capacity: r.Capacity, Conflict: r.Conflict,
	}
}
