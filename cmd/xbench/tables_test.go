package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"xring/internal/parallel"
)

// stripTimeColumn drops the last field of every non-blank line and
// joins the rest with single spaces, as awk '{if(NF>0)NF--; print}'
// does: the T column is wall-clock time.
func stripTimeColumn(s string) string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 {
			lines[i] = strings.Join(f[:len(f)-1], " ")
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestTablesMatchGolden renders -table all in process and compares it,
// T column stripped, with testdata/tables.golden: once on the default
// pool and once on a one-worker pool (the -serial mode). Every table
// cell goes through the full synthesis, loss and crosstalk flow, so a
// change that moves one shows here.
func TestTablesMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, tc := range []struct {
		name    string
		workers int
	}{{"pooled", 0}, {"serial", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			parallel.SetWorkers(tc.workers)
			var out bytes.Buffer
			tablesAll(&out)
			got, want := strings.Split(stripTimeColumn(out.String()), "\n"), strings.Split(string(golden), "\n")
			for i := 0; i < max(len(got), len(want)); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("line %d differs from the golden:\n got %q\nwant %q", i+1, g, w)
				}
			}
		})
	}
}
