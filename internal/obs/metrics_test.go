package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"utlb/internal/units"
)

// TestBucketIndex pins the bits.Len64 bucket computation against the
// definition: index of the smallest boundary 2^(bucketLow+i) >= d.
func TestBucketIndex(t *testing.T) {
	naive := func(d uint64) int {
		for i := 0; i < NumBuckets; i++ {
			if d <= 1<<(bucketLow+i) {
				return i
			}
		}
		return NumBuckets
	}
	cases := []uint64{0, 1, 127, 128, 129, 255, 256, 257, 1000,
		1 << 20, 1<<20 + 1, 1<<26 - 1, 1 << 26, 1<<26 + 1, 1 << 28, 1 << 40}
	clamp := func(i int) int { // overflow contract: anything >= NumBuckets is +Inf-only
		if i > NumBuckets {
			return NumBuckets
		}
		return i
	}
	for _, d := range cases {
		if got, want := clamp(BucketIndex(d)), naive(d); got != want {
			t.Errorf("BucketIndex(%d) = %d, want %d", d, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		d := uint64(rng.Int63()) >> uint(rng.Intn(40))
		if got, want := clamp(BucketIndex(d)), naive(d); got != want {
			t.Fatalf("BucketIndex(%d) = %d, want %d", d, got, want)
		}
	}
}

// randomRuns builds a deterministic pseudo-random event set big enough
// to exercise every bucket and kind.
func randomRuns(events int) []Run {
	rng := rand.New(rand.NewSource(1998))
	buf := NewBuffer("bench/random")
	for i := 0; i < events; i++ {
		k := Kind(1 + rng.Intn(NumKinds-1))
		ev := Event{
			Time: units.Time(i),
			Arg:  uint64(rng.Intn(4096)),
			PID:  units.ProcID(rng.Intn(8)),
			Kind: k,
		}
		if k.IsSpan() {
			// Spread durations across the full bucket range and beyond.
			ev.Dur = units.Time(rng.Int63n(1 << uint(6+rng.Intn(24))))
		}
		buf.Record(ev)
	}
	return []Run{buf.Run()}
}

// TestAggregateMatchesReference proves the single-bucket Aggregate and
// the full-scan reference produce identical Metrics — and therefore
// identical Prometheus output.
func TestAggregateMatchesReference(t *testing.T) {
	for _, runs := range [][]Run{sortedFixture(), randomRuns(20000)} {
		got, want := Aggregate(runs), AggregateReference(runs)
		if *got != *want {
			t.Fatalf("Aggregate diverged from reference.\ngot:  %+v\nwant: %+v", got, want)
		}
		var a, b bytes.Buffer
		if err := WritePrometheus(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&b, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("Prometheus output diverged between Aggregate and reference")
		}
	}
}

// TestChromeXferArg checks the transfer id is emitted as an "xfer" arg
// exactly when non-zero.
func TestChromeXferArg(t *testing.T) {
	buf := NewBuffer("x")
	buf.Record(Event{Time: 100, Dur: 50, Arg: 1, PID: 1, Kind: KindPin, Xfer: 7})
	buf.Record(Event{Time: 200, Dur: 50, Arg: 1, PID: 1, Kind: KindPin})
	var out bytes.Buffer
	if err := WriteChromeTrace(&out, []Run{buf.Run()}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if n := strings.Count(s, `"xfer":7`); n != 1 {
		t.Fatalf(`"xfer":7 appears %d times, want 1 in %s`, n, s)
	}
	if n := strings.Count(s, `"xfer"`); n != 1 {
		t.Fatalf(`zero-id event emitted an xfer arg: %s`, s)
	}
	tf, err := ReadChromeTrace(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if tf.Events[0].Args["xfer"] != 7 {
		t.Fatalf("decoded args = %v", tf.Events[0].Args)
	}
}

func TestXferCursor(t *testing.T) {
	var nilCursor *XferCursor
	if nilCursor.Begin() != 0 || nilCursor.Current() != 0 {
		t.Fatal("nil cursor must stay at 0")
	}
	nilCursor.Set(9) // must not panic
	nilCursor.Clear()

	x := NewXferCursor()
	if x.Current() != 0 {
		t.Fatal("fresh cursor not idle")
	}
	if id := x.Begin(); id != 1 || x.Current() != 1 {
		t.Fatalf("first Begin = %d (cur %d)", id, x.Current())
	}
	if id := x.Begin(); id != 2 {
		t.Fatalf("second Begin = %d", id)
	}
	x.Set(1)
	if x.Current() != 1 {
		t.Fatal("Set did not restore")
	}
	x.Clear()
	if x.Current() != 0 {
		t.Fatal("Clear did not reset")
	}
	if id := x.Begin(); id != 3 {
		t.Fatalf("Begin after Clear = %d, want 3 (ids never reused)", id)
	}
}

// The satellite's motivating numbers: the old Aggregate compared every
// span against all twenty boundaries; the new one computes the bucket
// with one bits.Len64.
func BenchmarkAggregate(b *testing.B) {
	runs := randomRuns(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Aggregate(runs)
	}
}

func BenchmarkAggregateReference(b *testing.B) {
	runs := randomRuns(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateReference(runs)
	}
}
