package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Table X", "app", "misses")
	tbl.AddRow("fft", "0.25")
	tbl.AddRowf("lu", 0.5)
	tbl.AddRow("radix") // short row gets padded
	out := tbl.String()
	for _, want := range []string{"Table X", "app", "misses", "fft", "0.25", "lu", "0.50", "radix"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if tbl.NumRows() != 3 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("", "a", "bbbb")
	tbl.AddRow("xxxxxx", "y")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), lines)
	}
	// Header and row should be padded to the same column start.
	if !strings.HasPrefix(lines[2], "xxxxxx  y") {
		t.Errorf("row misaligned: %q", lines[2])
	}
}

func TestFigure(t *testing.T) {
	f := NewFigure("Fig 8", "prefetch", "miss rate")
	f.Series("1K").Add(1, 0.5)
	f.Series("1K").Add(4, 0.3)
	f.Series("2K").Add(1, 0.4)
	if got := f.SeriesNames(); len(got) != 2 || got[0] != "1K" {
		t.Errorf("SeriesNames = %v", got)
	}
	out := f.String()
	for _, want := range []string{"Fig 8", "prefetch", "1K", "2K", "0.5000", "0.3000", "0.4000"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	// Same series object on repeated access.
	if f.Series("1K") != f.Series("1K") {
		t.Error("Series should return the same instance")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{1: "1", 1.5: "1.5", 0.25: "0.25", 16: "16"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
