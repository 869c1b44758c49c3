package xlate

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/telemetry"
	"utlb/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is the service the golden sequence runs against: four
// shards small enough that the batch inserts evict.
var goldenConfig = Config{Shards: 4, Entries: 16, Ways: 4}

// runGoldenSequence drives svc through a fixed mix of every public
// operation and writes each result to w, one line per operation. The
// sequence is the same with and without a telemetry sink.
func runGoldenSequence(svc *Service, w *bytes.Buffer) {
	keys := make([]Key, 96)
	pfns := make([]units.PFN, len(keys))
	for i := range keys {
		keys[i] = Key{PID: units.ProcID(1 + i%3), VPN: units.VPN(i * 7)}
		pfns[i] = SyntheticPFN(keys[i])
	}
	misses := make([]Key, 24)
	for i := range misses {
		misses[i] = Key{PID: 9, VPN: units.VPN(1000 + i)}
	}

	fmt.Fprintf(w, "InsertMany(0:48) evictions=%d\n", svc.InsertMany(keys[:48], pfns[:48]))
	fmt.Fprintf(w, "InsertMany(48:96) evictions=%d\n", svc.InsertMany(keys[48:], pfns[48:]))
	var out []Result
	for round, batch := range [][]Key{keys[:32], keys[64:], misses, append(append([]Key{}, keys[40:56]...), misses[:8]...)} {
		out = svc.LookupMany(batch, out)
		fmt.Fprintf(w, "LookupMany#%d", round)
		for _, r := range out {
			if r.Hit {
				fmt.Fprintf(w, " %x", uint64(r.PFN))
			} else {
				w.WriteString(" -")
			}
		}
		w.WriteString("\n")
	}
	for _, k := range []Key{keys[0], keys[95], misses[0], keys[50]} {
		r := svc.Lookup(k)
		fmt.Fprintf(w, "Lookup(%d,%d) hit=%t pfn=%x\n", k.PID, k.VPN, r.Hit, uint64(r.PFN))
	}
	for i, k := range []Key{misses[0], misses[1], keys[3], {PID: 2, VPN: 5000}} {
		ev, was := svc.Insert(k, units.PFN(0x100+i))
		fmt.Fprintf(w, "Insert(%d,%d) evicted=%t key=%d,%d\n", k.PID, k.VPN, was, ev.PID, ev.VPN)
	}
	for _, k := range []Key{misses[0], misses[0], keys[95], {PID: 7, VPN: 7}} {
		fmt.Fprintf(w, "Invalidate(%d,%d) = %t\n", k.PID, k.VPN, svc.Invalidate(k))
	}
	for _, pid := range []units.ProcID{2, 2, 8} {
		fmt.Fprintf(w, "InvalidateProcess(%d) = %d\n", pid, svc.InvalidateProcess(pid))
	}
	out = svc.LookupMany(keys, out)
	hits := 0
	for _, r := range out {
		if r.Hit {
			hits++
		}
	}
	fmt.Fprintf(w, "LookupMany(all) hits=%d\n", hits)
	fmt.Fprintf(w, "Stats %+v\n", svc.Stats())
}

// runGoldenWithSink runs the sequence on a fresh service with a
// ManualClock sink (tick 10, 100 ns windows, so the ring folds and
// wraps during the run) sampling one request in every and returns the
// results followed by every telemetry export.
func runGoldenWithSink(t *testing.T, every int64) []byte {
	t.Helper()
	svc, err := New(goldenConfig)
	if err != nil {
		t.Fatal(err)
	}
	clk := telemetry.NewManualClock(0)
	clk.SetTick(10)
	sink, err := telemetry.New(telemetry.Config{
		Shards: goldenConfig.Shards, WindowNs: 100, Windows: 8,
		SampleEvery: every, MaxTraces: 16,
		SLOTargetNs: 5, SLOBudget: 0.25,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachTelemetry(sink); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	runGoldenSequence(svc, &b)
	b.WriteString("-- xlate.WritePrometheus --\n")
	if err := WritePrometheus(&b, svc.Stats()); err != nil {
		t.Fatal(err)
	}
	now := clk.Now()
	b.WriteString("-- Sink.SeriesReport --\n")
	for _, p := range sink.SeriesReport(now).Points {
		fmt.Fprintf(&b, "%+v\n", p)
	}
	b.WriteString("-- Sink.WritePrometheus --\n")
	if err := sink.WritePrometheus(&b, now); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "-- TotalsSnapshot --\n%+v\n", sink.TotalsSnapshot())
	b.WriteString("-- TraceRuns --\n")
	if err := obs.WriteChromeTrace(&b, sink.TraceRuns()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTelemetryGolden pins the service's results and every telemetry
// export, byte for byte, for a fixed operation sequence under two
// sampling rates. Regenerate with `go test ./internal/xlate -run
// TestTelemetryGolden -update` only for an intended change of output.
func TestTelemetryGolden(t *testing.T) {
	for _, every := range []int64{1, 3} {
		t.Run(fmt.Sprintf("sample%d", every), func(t *testing.T) {
			got := runGoldenWithSink(t, every)
			path := filepath.Join("testdata", fmt.Sprintf("telemetry_sample%d.golden", every))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}

// TestNoSinkMatchesSink runs the golden sequence on a service with no
// telemetry sink and checks it returns the same per-operation results
// and the same Stats as the instrumented service: telemetry observes
// the cache, it never changes it.
func TestNoSinkMatchesSink(t *testing.T) {
	svc, err := New(goldenConfig)
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	runGoldenSequence(svc, &plain)
	for _, every := range []int64{1, 3} {
		withSink := runGoldenWithSink(t, every)
		ops, _, _ := bytes.Cut(withSink, []byte("-- xlate.WritePrometheus --\n"))
		if !bytes.Equal(plain.Bytes(), ops) {
			t.Errorf("sample every %d: results without a sink differ from results with one:\nno sink:\n%s\nsink:\n%s",
				every, plain.Bytes(), ops)
		}
	}
}
