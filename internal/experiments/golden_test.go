package experiments

// The quick-scale renderings of every study, pinned byte for byte: a change
// to a runner's grid, its decoding or its String shows up as a diff against
// testdata/quick_studies.txt.  The profiler comparison is left out, since
// its rows are wall-clock times.
//
// Regenerate with:
//
//	go test ./internal/experiments -run TestQuickStudiesGolden -update-studies

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateStudies = flag.Bool("update-studies", false, "rewrite testdata/quick_studies.txt from the current studies")

const studiesFile = "testdata/quick_studies.txt"

// quickRenderings returns every deterministic study's String at
// Options{Quick: true}, each under a "==== name ====" header.
func quickRenderings(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, s := range Studies() {
		if s.Name == "profiler" {
			continue
		}
		res, err := s.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%s", s.Name, res.String())
	}
	return b.String()
}

func TestQuickStudiesGolden(t *testing.T) {
	got := quickRenderings(t)
	if *updateStudies {
		if err := os.WriteFile(studiesFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", studiesFile)
		return
	}
	raw, err := os.ReadFile(studiesFile)
	if err != nil {
		t.Fatalf("read %s (run with -update-studies to create): %v", studiesFile, err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs:\n  got  %q\n  want %q", studiesFile, i+1, g, w)
		}
	}
}
