package experiments

import (
	"strings"
	"testing"
)

func TestAblationContextCount(t *testing.T) {
	l := testLab(t)
	rows, err := l.AblationContextCountCtx(t.Context(), []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EngineAcc < 0.7 {
			t.Errorf("k=%d: engine accuracy %.3f", r.K, r.EngineAcc)
		}
		if r.KodanDVD < 0.6 || r.KodanDVD > 1 {
			t.Errorf("k=%d: DVD %.3f", r.K, r.KodanDVD)
		}
	}
	// More contexts must not hurt the optimized DVD badly: the selection
	// logic can always ignore extra granularity. (It may help or tie.)
	if rows[1].KodanDVD < rows[0].KodanDVD-0.1 {
		t.Errorf("k=6 DVD %.3f far below k=2 DVD %.3f", rows[1].KodanDVD, rows[0].KodanDVD)
	}
	if !strings.Contains(RenderAblationContextCount(rows), "KodanDVD") {
		t.Error("render missing header")
	}
}

func TestAblationContextSource(t *testing.T) {
	l := testLab(t)
	rows, err := l.AblationContextSourceCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Source != "automatic" || rows[1].Source != "expert" {
		t.Fatalf("rows = %+v", rows)
	}
	// Expert contexts are the five geography classes.
	if rows[1].K != 5 {
		t.Errorf("expert K = %d", rows[1].K)
	}
	// Both sources must produce a working pipeline that beats the bent
	// pipe decisively.
	for _, r := range rows {
		if r.KodanDVD < 0.7 {
			t.Errorf("%s: DVD %.3f", r.Source, r.KodanDVD)
		}
	}
	if !strings.Contains(RenderAblationContextSource(rows), "expert") {
		t.Error("render missing source")
	}
}
