package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v, want 0", g)
	}
	if g := Geomean([]float64{4}); !almostEqual(g, 4) {
		t.Errorf("Geomean([4]) = %v", g)
	}
	if g := Geomean([]float64{1, 4}); !almostEqual(g, 2) {
		t.Errorf("Geomean([1,4]) = %v, want 2", g)
	}
	if g := Geomean([]float64{2, 8, 4}); !almostEqual(g, 4) {
		t.Errorf("Geomean([2,8,4]) = %v, want 4", g)
	}
	// Zero entries must not collapse the geomean to zero.
	if g := Geomean([]float64{0, 4}); g <= 0 {
		t.Errorf("Geomean with zero entry = %v, want > 0", g)
	}
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			// keep values in a sane positive range
			v = math.Mod(v, 1e6) + 1e-3
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentAndRatio(t *testing.T) {
	if s := Percent(0.14); s != "14.0%" {
		t.Errorf("Percent = %q", s)
	}
	if r := Ratio(3, 0); r != 0 {
		t.Errorf("Ratio(3,0) = %v, want 0", r)
	}
	if r := Ratio(3, 2); !almostEqual(r, 1.5) {
		t.Errorf("Ratio = %v", r)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Fig X", "bench", "ipc")
	tab.AddRowf("swim", 1.25)
	tab.AddRow("mcf", "0.5", "extra-cell-dropped")
	tab.AddRow("art") // short row ok
	out := tab.String()
	if !strings.Contains(out, "== Fig X ==") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "swim") || !strings.Contains(out, "1.2500") {
		t.Errorf("missing formatted row:\n%s", out)
	}
	if strings.Contains(out, "extra-cell-dropped") {
		t.Errorf("extra cell not dropped:\n%s", out)
	}
	if tab.NumRows() != 3 {
		t.Errorf("rows = %d", tab.NumRows())
	}
	if tab.Title() != "Fig X" {
		t.Errorf("title = %q", tab.Title())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 3 rows
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "ipc"
	s.Add("2KB", 2.5)
	s.Add("8KB", 2.65)
	str := s.String()
	if !strings.Contains(str, "2KB=2.5000") || !strings.Contains(str, "8KB=2.6500") {
		t.Errorf("series string = %q", str)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("ignored title", "bench", "ipc", "note")
	tab.AddRow("swim", "1.25", `say "hi", ok`)
	tab.AddRow("mcf") // short row padded
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "bench,ipc,note\nswim,1.25,\"say \"\"hi\"\", ok\"\nmcf,,\n"
	if out != want {
		t.Errorf("csv = %q, want %q", out, want)
	}
	if strings.Contains(out, "ignored title") {
		t.Error("CSV must not contain the title")
	}
}

// TestGeomeanClampObservable: clamping of non-positive inputs must never
// be silent — the per-call count and the process-wide counter both record
// it.
func TestGeomeanClampObservable(t *testing.T) {
	before := GeomeanClampCount()

	g, clamped := GeomeanClamped([]float64{0, -1, 4})
	if g <= 0 {
		t.Errorf("clamped geomean = %v, want > 0", g)
	}
	if clamped != 2 {
		t.Errorf("clamped = %d, want 2", clamped)
	}
	if got := GeomeanClampCount() - before; got != 2 {
		t.Errorf("GeomeanClampCount delta = %d, want 2", got)
	}

	if _, clamped := GeomeanClamped([]float64{1, 4}); clamped != 0 {
		t.Errorf("clean inputs reported %d clamps", clamped)
	}
}
