package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestExperimentsGolden pins the output of a full run — every experiment
// in -list order, each seeded — byte for byte, and keeps docs/EXPERIMENTS.md
// in step with the list: one "## <id>" heading per experiment, in list
// order, and no other. Regenerate the golden with -update only for a
// deliberate change to an experiment.
func TestExperimentsGolden(t *testing.T) {
	var list, out bytes.Buffer
	listExperiments(&list)
	if err := run(&out, ""); err != nil {
		t.Fatal(err)
	}

	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(list.String()), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(doc), "\n") {
		if heading, ok := strings.CutPrefix(line, "## "); ok {
			headings = append(headings, strings.TrimSpace(heading))
		}
	}
	if !slices.Equal(ids, headings) {
		t.Errorf("docs/EXPERIMENTS.md headings %q, want one per -list id in order: %q", headings, ids)
	}

	golden := filepath.Join("testdata", "experiments.golden")
	got := out.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output diverges from %s at line %d:\n got %s\nwant %s", golden, i+1, g, w)
		}
	}
}
