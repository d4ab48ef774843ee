package main

import (
	"strings"
	"testing"
)

func TestParseTenants(t *testing.T) {
	specs, err := parseTenants("ops:3,science:1:2, batch:0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []tenantSpec{
		{name: "ops", weight: 3, share: 3},
		{name: "science", weight: 1, share: 2},
		{name: "batch", weight: 0.5, share: 0.5},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d: got %+v, want %+v", i, specs[i], want[i])
		}
	}
	anon := tenantSpec{name: "", weight: 1, share: 1}
	if specs, err := parseTenants(""); err != nil || len(specs) != 1 || specs[0] != anon {
		t.Errorf("empty spec must mean one anonymous tenant, got %v, %v", specs, err)
	}
	for _, bad := range []string{":1", "a:b", "a:-1", "a:1:0", "a:1:2:3"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

func TestParsePools(t *testing.T) {
	apps, err := parseInts("1, 2,3")
	if err != nil || len(apps) != 3 || apps[2] != 3 {
		t.Fatalf("parseInts: %v, %v", apps, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("parseInts accepted garbage")
	}
	seeds, err := parseUints("7,8")
	if err != nil || len(seeds) != 2 || seeds[0] != 7 {
		t.Fatalf("parseUints: %v, %v", seeds, err)
	}
	if _, err := parseUints("-1"); err == nil {
		t.Error("parseUints accepted a negative seed")
	}
}

func TestValidateFlags(t *testing.T) {
	ok := options{requests: 120, concurrency: 16, apps: []int{1}, seedPool: []uint64{1}}
	cases := []struct {
		name    string
		mutate  func(*options)
		url     string
		compare bool
		wantErr string
	}{
		{"gate shape", nil, "", true, ""},
		{"external server", nil, "http://127.0.0.1:8080", false, ""},
		{"zero requests", func(o *options) { o.requests = 0 }, "", false, "-requests"},
		{"negative requests", func(o *options) { o.requests = -3 }, "", false, "-requests"},
		{"zero concurrency", func(o *options) { o.concurrency = 0 }, "", false, "-concurrency"},
		{"empty apps", func(o *options) { o.apps = nil }, "", false, "-apps"},
		{"empty seed pool", func(o *options) { o.seedPool = nil }, "", false, "-seed-pool"},
		{"compare against url", nil, "http://127.0.0.1:8080", true, "-compare"},
	}
	for _, tc := range cases {
		o := ok
		if tc.mutate != nil {
			tc.mutate(&o)
		}
		err := validateFlags(o, tc.url, tc.compare)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: bad value accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestGates(t *testing.T) {
	clean := &report{Requests: 10, Completed: 10, Fairness: 1}
	if failed := gates(clean, 0.01, 0.5); len(failed) != 0 {
		t.Errorf("clean run failed gates: %v", failed)
	}
	errors := &report{Requests: 10, Completed: 5, Errors: 5, ErrorRate: 0.5, Fairness: 1}
	if failed := gates(errors, 0.01, 0.5); len(failed) != 1 {
		t.Errorf("want exactly the error-rate gate, got %v", failed)
	}
	unfair := &report{Requests: 10, Completed: 10, Fairness: 0.3}
	if failed := gates(unfair, 0.01, 0.5); len(failed) != 1 {
		t.Errorf("want exactly the fairness gate, got %v", failed)
	}
	// 429s are backpressure: a run that completes nothing still fails, but
	// rejections alone do not trip the error-rate gate.
	starved := &report{Requests: 10, Rejected: 10, Fairness: 1}
	if failed := gates(starved, 0.01, 0.5); len(failed) != 1 {
		t.Errorf("want exactly the no-completions gate, got %v", failed)
	}
}
