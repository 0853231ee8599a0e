package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported: a p90 needs 100 samples, a p50 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples
// together with the sample count.  It refuses a percentile with fewer than
// minBeyond samples above its rank, because such a figure is set by a
// handful of outliers.  samples is sorted in place.
func percentile(samples []float64, q float64) (v float64, n int, err error) {
	n = len(samples)
	if q <= 0 || q >= 1 {
		return 0, n, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, n, fmt.Errorf("p%.0f needs %d samples beyond its rank, have %d of %d",
			q*100, minBeyond, max(n-rank, 0), n)
	}
	sort.Float64s(samples)
	return samples[rank-1], n, nil
}

// metric is one printed figure.  N is the sample count behind a
// percentile or mean (0 for a single reading); it is printed in the
// human-readable table, not in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// metricSet collects one run's figures, refusing a name twice or a name
// the unit table does not know.
type metricSet struct {
	units map[string]string
	m     map[string]metric
	err   error
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, m: map[string]metric{}}
}

func (s *metricSet) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// set records a figure under its table unit.
func (s *metricSet) set(name string, v float64, n int) {
	unit, ok := s.units[name]
	switch {
	case !ok:
		s.fail(fmt.Errorf("metric %s has no unit", name))
		return
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.fail(fmt.Errorf("metric %s is %v", name, v))
		return
	}
	if _, dup := s.m[name]; dup {
		s.fail(fmt.Errorf("metric %s set twice", name))
		return
	}
	s.m[name] = metric{Value: v, Unit: unit, N: n}
}

// pct records a percentile of samples.
func (s *metricSet) pct(name string, samples []float64, q float64) {
	v, n, err := percentile(samples, q)
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	s.set(name, v, n)
}

// mean records the mean of samples; an empty sample set is an error.
func (s *metricSet) mean(name string, samples []float64) {
	if len(samples) == 0 {
		s.fail(fmt.Errorf("%s: no samples", name))
		return
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	s.set(name, sum/float64(len(samples)), len(samples))
}

// ratio records num/den, refusing a zero denominator.
func (s *metricSet) ratio(name string, num, den float64) {
	if den == 0 {
		s.fail(fmt.Errorf("%s: zero denominator", name))
		return
	}
	s.set(name, num/den, int(den))
}

// complete reports an error unless every name of the unit table was set.
func (s *metricSet) complete() error {
	if s.err != nil {
		return s.err
	}
	for name := range s.units {
		if _, ok := s.m[name]; !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndUnits are the figures a user of the server sees, printed by an
// untraced run.  BENCHMARK.json lists the same names and units.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"ack_p50_ms":       "ms",
	"ack_p90_ms":       "ms",
	"batch_p50_ms":     "ms",
	"round_p50_ms":     "ms",
	"round_p90_ms":     "ms",
	"mutual_per_round": "benefit",
	"cpu_ms_per_round": "ms",
	"rss_retained_mb":  "MiB",
	"ok_frac":          "ratio",
}

// perLayerUnits are the figures of the traced run, named
// <layer>.<metric> after the repository's modules.
var perLayerUnits = map[string]string{
	"server.handler_p50_us":                "us",
	"server.handler_p90_us":                "us",
	"server.self_p50_us":                   "us",
	"admission.admitted":                   "count",
	"admission.shed":                       "count",
	"admission.inflight_limit":             "count",
	"service.submit_p50_us":                "us",
	"service.submit_batch_p50_us":          "us",
	"service.close_round_p50_ms":           "ms",
	"service.round_other_p50_ms":           "ms",
	"journal.append_p50_us":                "us",
	"journal.append_batch_p50_us":          "us",
	"journal.bytes_per_event":              "bytes",
	"journal.segments":                     "count",
	"checkpoint.count":                     "count",
	"checkpoint.round_mean_ms":             "ms",
	"checkpoint.snapshot_bytes":            "bytes",
	"core.solve_p50_ms":                    "ms",
	"core.solve_p90_ms":                    "ms",
	"core.edges_p50":                       "edges",
	"core.selected_p50":                    "pairs",
	"core.warm_frac":                       "ratio",
	"core.fallback_frac":                   "ratio",
	"core.dirty_fraction_p50":              "ratio",
	"sharded.shard_solve_max_p50_ms":       "ms",
	"sharded.shard_solve_sum_p50_ms":       "ms",
	"sharded.other_p50_ms":                 "ms",
	"sharded.reconcile_dropped_per_round":  "pairs",
	"sharded.reconcile_refilled_per_round": "pairs",
	"runtime.gc_cycles":                    "count",
	"runtime.alloc_kb_per_event":           "KiB",
	"runtime.alloc_mb_per_round":           "MiB",
	"runtime.heap_peak_mb":                 "MiB",
	"gen.late_p50_ms":                      "ms",
	"gen.late_p90_ms":                      "ms",
	"trace.overhead_frac":                  "ratio",
}
