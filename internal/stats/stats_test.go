package stats

import (
	"strings"
	"testing"
)

func TestRatioSpeedupPercent(t *testing.T) {
	if Speedup(100, 50) != 2 || Speedup(100, 0) != 0 {
		t.Fatalf("Speedup wrong")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	xs := []float64{4, 2, 8}
	if Min(xs) != 2 || Max(xs) != 8 {
		t.Fatalf("Min/Max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatalf("empty Min/Max should be 0")
	}
	norm := Normalize(xs)
	if len(norm) != 3 || norm[1] != 1 || norm[0] != 2 || norm[2] != 4 {
		t.Fatalf("Normalize = %v", norm)
	}
	if Normalize(nil) != nil || Normalize([]float64{0, 1}) != nil {
		t.Fatalf("Normalize edge cases wrong")
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("beta", "2.500")
	tab.AddRow("gamma") // missing cell
	tab.AddRow("delta", "4", "extra dropped")
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.500") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // header + separator + 4 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// All lines aligned: same column start for the second column.
	if !strings.HasPrefix(lines[0], "name ") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
}
