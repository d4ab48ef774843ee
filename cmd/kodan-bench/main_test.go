package main

import (
	"context"
	"strings"
	"testing"

	"kodan/internal/experiments"
)

func TestSelectGeneratorsUnknownNameErrors(t *testing.T) {
	_, err := selectFigures(experiments.NewLab(experiments.Quick).Figures(), "fig7")
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
	figs := experiments.NewLab(experiments.Quick).Figures()

	sel, err := selectFigures(figs, " fig9 , table1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d figures, want 2", len(sel))
	}
	// Report order is preserved regardless of the -only order.
	if sel[0].Key != "table1" || sel[1].Key != "fig9" {
		t.Errorf("selected keys %q, %q; want table1, fig9", sel[0].Key, sel[1].Key)
	}

	all, err := selectFigures(figs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(figs) {
		t.Errorf("empty -only selected %d of %d figures", len(all), len(figs))
	}
}

func TestGeneratorKeysAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range experiments.NewLab(experiments.Quick).Figures() {
		if seen[f.Key] {
			t.Errorf("duplicate figure key %q", f.Key)
		}
		seen[f.Key] = true
	}
}

// TestTable1Generator runs the one registry entry that needs no lab work
// end to end: rendered output plus exportable rows.
func TestTable1Generator(t *testing.T) {
	figs, err := selectFigures(experiments.NewLab(experiments.Quick).Figures(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	out, rows, err := figs[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("render missing title:\n%s", out)
	}
	if rows == nil {
		t.Error("figure returned no rows for export")
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

// TestResilienceGenerator runs the resilience sweep through the figure
// registry at quick scale.
func TestResilienceGenerator(t *testing.T) {
	figs, err := selectFigures(experiments.NewLab(experiments.Quick).Figures(), "resilience")
	if err != nil {
		t.Fatal(err)
	}
	out, rows, err := figs[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Resilience sweep") {
		t.Errorf("render missing title:\n%s", out)
	}
	if rows == nil {
		t.Error("figure returned no rows for export")
	}
}

// TestHybridPlanGenerator runs the hybrid planning sweep through the
// figure registry at quick scale.
func TestHybridPlanGenerator(t *testing.T) {
	figs, err := selectFigures(experiments.NewLab(experiments.Quick).Figures(), "hybridplan")
	if err != nil {
		t.Fatal(err)
	}
	out, rows, err := figs[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Hybrid plan sweep") {
		t.Errorf("render missing title:\n%s", out)
	}
	if rows == nil {
		t.Error("figure returned no rows for export")
	}
}
