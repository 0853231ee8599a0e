package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: percentile must sort
	}
	return s
}

func TestPercentileCountAndRefusal(t *testing.T) {
	for _, tc := range []struct {
		q       float64
		n       int
		want    float64
		refused bool
	}{
		{0.5, 19, 0, true},   // rank 10, 9 beyond
		{0.5, 20, 10, false}, // rank 10, 10 beyond
		{0.9, 99, 0, true},   // rank 90, 9 beyond
		{0.9, 100, 90, false},
		{0.9, 1000, 900, false},
		{0.5, 0, 0, true},
	} {
		v, n, err := percentile(seq(tc.n), tc.q)
		if n != tc.n {
			t.Errorf("p%v of %d: sample count %d", tc.q, tc.n, n)
		}
		if (err != nil) != tc.refused {
			t.Errorf("p%v of %d: err %v, want refused=%v", tc.q, tc.n, err, tc.refused)
		}
		if err == nil && v != tc.want {
			t.Errorf("p%v of %d = %v, want %v", tc.q, tc.n, v, tc.want)
		}
	}
}

// TestMetricSetRefusesUnknownAndIncomplete checks that a figure cannot be
// printed without a unit, and that a run missing a figure is an error.
func TestMetricSetRefusesUnknownAndIncomplete(t *testing.T) {
	set := newMetricSet(map[string]string{"a_ms": "ms", "b": "count"})
	set.set("a_ms", 1.5, 0)
	if err := set.complete(); err == nil {
		t.Error("incomplete set accepted")
	}
	set.set("b", 2, 0)
	if err := set.complete(); err != nil {
		t.Errorf("complete set refused: %v", err)
	}
	set.set("c", 3, 0)
	if err := set.complete(); err == nil || !strings.Contains(err.Error(), "no unit") {
		t.Errorf("figure without a unit accepted: %v", err)
	}
	bad := newMetricSet(map[string]string{"p": "ms"})
	bad.pct("p", seq(5), 0.9)
	if bad.complete() == nil {
		t.Error("percentile from too few samples accepted")
	}
}

// TestPrintedFiguresCarryUnits checks the JSON result: every figure has a
// value and a unit, and the unit tables match BENCHMARK.json.
func TestPrintedFiguresCarryUnits(t *testing.T) {
	set := newMetricSet(endToEndUnits)
	for name := range endToEndUnits {
		set.set(name, 1.25, 0)
	}
	b, err := json.Marshal(&result{Correct: true, Attempted: 1, Metrics: set.m})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Metrics map[string]map[string]any
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for name, m := range got.Metrics {
		if len(m) != 2 || m["unit"] != endToEndUnits[name] || m["value"] != 1.25 {
			t.Errorf("%s printed as %v", name, m)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		table map[string]string
		list  []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEndUnits, bench.EndToEnd},
		{"per_layer", perLayerUnits, bench.PerLayer},
	} {
		if len(tc.list) != len(tc.table) {
			t.Errorf("%s: BENCHMARK.json lists %d figures, the benchmark prints %d", tc.kind, len(tc.list), len(tc.table))
		}
		for _, m := range tc.list {
			if unit, ok := tc.table[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the benchmark prints %q", tc.kind, m.Name, m.Unit, unit)
			}
		}
	}
}
