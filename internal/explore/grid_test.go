package explore

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func rawNet(s string) json.RawMessage { return json.RawMessage(s) }

func TestExpandDeterministicOrderAndIDs(t *testing.T) {
	g := Grid{
		Floorplans: []Floorplan{
			{Name: "std8", Network: rawNet(`{"standard": 8}`)},
			{Name: "std16", Network: rawNet(`{"standard": 16}`)},
		},
		Budgets:    []int{6, 0},
		Objectives: []string{"min-power", "min-il"},
		Policies:   []Policy{{Name: "base"}, {Name: "nocse", NoCSE: true}},
		Share:      []bool{false, true},
	}
	first, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 fp x (1 fixed budget x 2 pol x 2 share + 1 sweep x 2 pol x 2 share x 2 obj) = 2*(4+8) = 24
	if len(first) != 24 {
		t.Fatalf("expanded %d cells, want 24", len(first))
	}
	second, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("expansion is not deterministic")
	}
	seen := map[string]bool{}
	for i, c := range first {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = true
		if c.Sweep != (c.Budget == 0) {
			t.Errorf("cell %q: sweep=%v budget=%d", c.ID, c.Sweep, c.Budget)
		}
		if c.Sweep && c.Objective == "" {
			t.Errorf("sweep cell %q has no objective", c.ID)
		}
		if !c.Sweep && c.Objective != "" {
			t.Errorf("fixed cell %q carries objective %q", c.ID, c.Objective)
		}
	}
	// Spot-check the coordinate grammar.
	if first[0].ID != "std8/wl6/base/fresh" {
		t.Errorf("first cell ID = %q", first[0].ID)
	}
	wantSweep := "std8/sweep/base/fresh/min-power"
	if !seen[wantSweep] {
		t.Errorf("missing sweep cell %q; have %v", wantSweep, keys(seen))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSizeMatchesExpand pins Size to the length of Expand over grids
// with and without sweep budgets, objectives, policies and share
// variants, and to Expand's validation errors.
func TestSizeMatchesExpand(t *testing.T) {
	fps := []Floorplan{{Name: "a", Network: rawNet(`{"standard": 8}`)}, {Name: "b", Network: rawNet(`{"standard": 16}`)}}
	for _, g := range []Grid{
		{Floorplans: fps[:1], Budgets: []int{7}},
		{Floorplans: fps, Budgets: []int{6, 0}, Objectives: []string{"min-power", "min-il"},
			Policies: []Policy{{Name: "base"}, {Name: "nocse", NoCSE: true}}, Share: []bool{false, true}},
		{Floorplans: fps, Budgets: []int{0}, Objectives: []string{"min-power", "min-il", "max-snr"}},
		{Floorplans: fps, Budgets: []int{0, 3, 5}},
		{Floorplans: fps, Budgets: []int{4, 4}},
	} {
		size, err := g.Size()
		cells, xerr := g.Expand()
		if (err == nil) != (xerr == nil) || size != len(cells) {
			t.Errorf("grid %+v: Size %d (%v), Expand %d cells (%v)", g, size, err, len(cells), xerr)
		}
	}
}

func TestExpandDefaults(t *testing.T) {
	g := Grid{
		Floorplans: []Floorplan{{Network: rawNet(`{"standard": 8}`)}},
		Budgets:    []int{7},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1", len(cells))
	}
	if cells[0].ID != "fp0/wl7/default/fresh" {
		t.Errorf("defaulted cell ID = %q", cells[0].ID)
	}
}

func TestGridValidation(t *testing.T) {
	base := func() Grid {
		return Grid{
			Floorplans: []Floorplan{{Name: "a", Network: rawNet(`{"standard": 8}`)}},
			Budgets:    []int{6},
		}
	}
	cases := map[string]struct {
		mutate func(*Grid)
		want   string
	}{
		"no floorplans":       {func(g *Grid) { g.Floorplans = nil }, "no floorplans"},
		"no budgets":          {func(g *Grid) { g.Budgets = nil }, "no budgets"},
		"bad floorplan name":  {func(g *Grid) { g.Floorplans[0].Name = "a b" }, "floorplan name"},
		"dup floorplan":       {func(g *Grid) { g.Floorplans = append(g.Floorplans, g.Floorplans[0]) }, "duplicate floorplan"},
		"empty network":       {func(g *Grid) { g.Floorplans[0].Network = nil }, "no network"},
		"negative budget":     {func(g *Grid) { g.Budgets = []int{-1} }, "negative budget"},
		"dup budget":          {func(g *Grid) { g.Budgets = []int{6, 6} }, "duplicate budget"},
		"objective w/o sweep": {func(g *Grid) { g.Objectives = []string{"min-il"} }, "no sweep budget"},
		"unknown objective":   {func(g *Grid) { g.Budgets = []int{0}; g.Objectives = []string{"nope"} }, "unknown objective"},
		"dup objective":       {func(g *Grid) { g.Budgets = []int{0}; g.Objectives = []string{"min-il", "min-il"} }, "duplicate objective"},
		"bad policy name":     {func(g *Grid) { g.Policies = []Policy{{Name: "x/y"}} }, "policy name"},
		"dup policy":          {func(g *Grid) { g.Policies = []Policy{{Name: "p"}, {Name: "p"}} }, "duplicate policy"},
		"bad share axis":      {func(g *Grid) { g.Share = []bool{true, true} }, "share axis"},
		"bad params":          {func(g *Grid) { g.Params = "nope" }, "params preset"},
	}
	for name, tc := range cases {
		g := base()
		tc.mutate(&g)
		err := g.Validate()
		if err == nil {
			t.Errorf("%s: validated", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	g := base()
	if err := g.Validate(); err != nil {
		t.Errorf("base grid invalid: %v", err)
	}
}
