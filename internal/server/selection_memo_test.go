package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"kodan"
	"kodan/internal/core"
)

// TestSelectionMemoBoundedUnderHostileDeployments sends more distinct
// deployments than the selection-logic memo holds and checks that the
// application's memo never grows past its fixed bound, while a repeat of
// an early (memoized) and of a late (computed past the bound) request
// returns the same bytes as the first answer. The plan cache is kept
// small, so repeats miss it and reach the memo; the application itself is
// transformed once and stays cached throughout. /v1/simulate, which reads
// no deadline, rejects one and leaves the memo as it was.
func TestSelectionMemoBoundedUnderHostileDeployments(t *testing.T) {
	var (
		mu   sync.Mutex
		apps []*kodan.Application
	)
	cfg := testConfig()
	cfg.CacheEntries = 8
	cfg.Transform = func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		app, err := sys.TransformVariantCtx(ctx, appIndex, quantized)
		mu.Lock()
		apps = append(apps, app)
		mu.Unlock()
		return app, err
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	memoized := func(t *testing.T) int {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(apps) != 1 {
			t.Fatalf("application transformed %d times, want 1", len(apps))
		}
		return apps[0].MemoizedSelections()
	}
	// sweep posts one body per deadline, more deadlines than the memo
	// holds, and returns the first and last answers.
	sweep := func(t *testing.T, route, format string) (first, last []byte) {
		t.Helper()
		const n = core.SelectionMemoCap + 16
		for i := 0; i < n; i++ {
			resp, data := post(t, ts.Client(), ts.URL+route, fmt.Sprintf(format, 1000+i))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s deadline %d: status %d (%s)", route, 1000+i, resp.StatusCode, data)
			}
			if got := memoized(t); got > core.SelectionMemoCap {
				t.Fatalf("%s after %d deployments: memo holds %d, over its bound %d", route, i+1, got, core.SelectionMemoCap)
			}
			switch i {
			case 0:
				first = data
			case n - 1:
				last = data
			}
		}
		for _, r := range []struct {
			deadline int
			want     []byte
		}{{1000, first}, {1000 + n - 1, last}} {
			resp, data := post(t, ts.Client(), ts.URL+route, fmt.Sprintf(format, r.deadline))
			if resp.StatusCode != http.StatusOK || !bytes.Equal(data, r.want) {
				t.Fatalf("%s repeat of deadline %d: status %d, body identical=%v", route, r.deadline, resp.StatusCode, bytes.Equal(data, r.want))
			}
		}
		return first, last
	}

	t.Run("plan", func(t *testing.T) {
		sweep(t, "/v1/plan", `{"app":4,"target":"orin","deadlineMs":%d,"capacityFrac":0.21}`)
		if got := memoized(t); got != core.SelectionMemoCap {
			t.Fatalf("memo holds %d entries after the sweep, want its bound %d", got, core.SelectionMemoCap)
		}
	})
	// /v1/simulate derives its deployment from the simulated mission and
	// has no deadline field: a hostile deadline is a 400 that reaches
	// neither the simulator nor the memo.
	t.Run("simulate", func(t *testing.T) {
		before := memoized(t)
		for i := 0; i < 4; i++ {
			body := fmt.Sprintf(`{"app":4,"target":"orin","mode":"kodan","deadlineMs":%d}`, 1000+i)
			if resp, data := post(t, ts.Client(), ts.URL+"/v1/simulate", body); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("deadline %d: status %d (%s), want 400", 1000+i, resp.StatusCode, data)
			}
		}
		if got := memoized(t); got != before {
			t.Fatalf("memo holds %d entries after rejected simulations, want %d", got, before)
		}
	})
}
