package main

import (
	"context"
	"strings"
	"testing"

	"kodan/internal/experiments"
)

func TestSelectGeneratorsUnknownNameErrors(t *testing.T) {
	gens := generators(experiments.NewLab(experiments.Quick))
	_, err := selectGenerators(gens, "fig7")
	if err == nil {
		t.Fatal("unknown figure name accepted")
	}
	if !strings.Contains(err.Error(), "fig7") {
		t.Errorf("error %q does not name the bad key", err)
	}
	if !strings.Contains(err.Error(), "table1") || !strings.Contains(err.Error(), "fig15") {
		t.Errorf("error %q does not list the valid keys", err)
	}
}

func TestSelectGeneratorsFilters(t *testing.T) {
	gens := generators(experiments.NewLab(experiments.Quick))

	sel, err := selectGenerators(gens, " fig9 , table1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d generators, want 2", len(sel))
	}
	// Report order is preserved regardless of the -only order.
	if sel[0].key != "table1" || sel[1].key != "fig9" {
		t.Errorf("selected keys %q, %q; want table1, fig9", sel[0].key, sel[1].key)
	}

	all, err := selectGenerators(gens, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(gens) {
		t.Errorf("empty -only selected %d of %d generators", len(all), len(gens))
	}
}

func TestGeneratorKeysAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range generators(experiments.NewLab(experiments.Quick)) {
		if seen[g.key] {
			t.Errorf("duplicate generator key %q", g.key)
		}
		seen[g.key] = true
	}
}

// TestTable1Generator runs the one generator that needs no lab work
// end to end: rendered output plus exportable rows.
func TestTable1Generator(t *testing.T) {
	gens, err := selectGenerators(generators(experiments.NewLab(experiments.Quick)), "table1")
	if err != nil {
		t.Fatal(err)
	}
	out, rows, err := gens[0].gen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("render missing title:\n%s", out)
	}
	if rows == nil {
		t.Error("generator returned no rows for export")
	}
}

// TestValidateFlags covers the one out-of-range rejection: a negative
// -parallel is a usage error, zero (GOMAXPROCS) and positive counts are
// legal.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		parallel int
		wantErr  string
	}{
		{"defaults", 0, ""},
		{"sequential", 1, ""},
		{"four workers", 4, ""},
		{"negative parallel", -2, "-parallel"},
		{"minus one", -1, "-parallel"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.parallel)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: out-of-range value accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestResilienceGenerator runs the resilience sweep through the command's
// generator table at quick scale.
func TestResilienceGenerator(t *testing.T) {
	gens, err := selectGenerators(generators(experiments.NewLab(experiments.Quick)), "resilience")
	if err != nil {
		t.Fatal(err)
	}
	out, rows, err := gens[0].gen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Resilience sweep") {
		t.Errorf("render missing title:\n%s", out)
	}
	if rows == nil {
		t.Error("generator returned no rows for export")
	}
}

// TestHybridPlanGenerator runs the hybrid planning sweep through the
// command's generator table at quick scale.
func TestHybridPlanGenerator(t *testing.T) {
	gens, err := selectGenerators(generators(experiments.NewLab(experiments.Quick)), "hybridplan")
	if err != nil {
		t.Fatal(err)
	}
	out, rows, err := gens[0].gen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Hybrid plan sweep") {
		t.Errorf("render missing title:\n%s", out)
	}
	if rows == nil {
		t.Error("generator returned no rows for export")
	}
}
