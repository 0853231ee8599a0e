package main

import (
	"time"

	"repro/internal/platform"
)

// latency is how long r took as its user saw it, from its send.  A failed
// request counts as missing every latency limit.
func (r *request) latency() time.Duration {
	if r.err != nil || !okStatus(r) {
		return overrun
	}
	return r.done - r.sent
}

// endToEnd computes the user-visible figures of a checked phase.
func endToEnd(set *metricSet, ph *phase, out *outcome) {
	var ack, batch, round []float64
	for _, r := range ph.reqs {
		l := ms(r.latency())
		switch r.op.kind {
		case opJoin, opLeave:
			ack = append(ack, l)
		case opBatch:
			batch = append(batch, l)
		case opRound:
			round = append(round, l)
		}
	}
	set.pct("ack_p50_ms", ack, 0.5)
	set.pct("ack_p90_ms", ack, 0.9)
	set.pct("batch_p50_ms", batch, 0.5)
	set.pct("round_p50_ms", round, 0.5)
	set.pct("round_p90_ms", round, 0.9)

	// The rounds repeat exactly per seed, so a fixed prefix of them gives
	// the same figure on every run of one seed.
	mutual := out.mutual
	if len(mutual) > minRounds {
		mutual = mutual[:minRounds]
	}
	set.mean("mutual_per_round", mutual)
	set.ratio("cpu_ms_per_round", ph.server.CPUMicros/1e3, float64(len(out.rounds)))
	set.set("rss_retained_mb", ph.server.RetainedKiB/1024, 0)
	set.ratio("ok_frac", float64(out.ok), float64(len(ph.reqs)))
}

// perLayer computes the traced phase's per-layer figures: the server
// process's layer timings, admission counters from healthz, and the
// generator's own lateness.
func perLayer(set *metricSet, ph *phase, out *outcome) {
	for name, rd := range ph.server.Layers {
		if name == "runtime.alloc_bytes" {
			set.ratio("runtime.alloc_kb_per_event", rd.V/1024, float64(out.events))
			set.ratio("runtime.alloc_mb_per_round", rd.V/(1<<20), float64(len(out.rounds)))
			continue
		}
		set.set(name, rd.V, rd.N)
	}
	total := func(c platform.AdmissionCounts) float64 { return float64(c.High + c.Medium + c.Low) }
	set.set("admission.admitted", total(ph.adm.Admitted)-total(ph.adm0.Admitted), 0)
	set.set("admission.shed", total(ph.adm.Shed)-total(ph.adm0.Shed), 0)
	set.set("admission.inflight_limit", ph.adm.InflightLimit, 0)
	genLate(set, ph.reqs)
}

// genLate records how late the generator sent each request it sent, so a
// reader can tell the server's latency from the generator's.
func genLate(set *metricSet, reqs []*request) {
	var late []float64
	for _, r := range reqs {
		if r.status != 0 || r.err != nil {
			late = append(late, ms(r.sent-r.due))
		}
	}
	set.pct("gen.late_p50_ms", late, 0.5)
	set.pct("gen.late_p90_ms", late, 0.9)
}
