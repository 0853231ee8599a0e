package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Tracing for the traced run.  Each layer is timed from outside at its
// public seam: the HTTP handler (*platform.Server), platform.Backend,
// platform.Journal and core.Solver.  The wrappers keep every optional
// capability of the value they wrap, and nothing else, because the
// platform discovers capabilities by type assertion:
//
//	Backend: BatchSubmitter, HealthReporter, Fenceable
//	Journal: BatchJournal, Poisoned()
//	Solver:  core.ContextSolver, core.DeltaSolver, core.SolveReporter

// recorder keeps the traced run's spans in memory.  Wrappers call it from
// request goroutines and the shard solve pool, so every method locks.
type recorder struct {
	mu sync.Mutex
	on bool

	// inflight maps a single-event kind to the handler span serving it,
	// so the backend call can be charged to its handler.  The load
	// generator never has two requests of one kind in flight.
	inflight map[platform.EventKind]*handlerSpan

	handler, self       []float64  // µs, single-event routes
	submit, submitBatch []float64  // µs
	appendOne, appendN  []float64  // µs
	round               *roundSpan // the close in flight (closes are single-flight)
	rounds              []roundSpan
	solves              []solveSpan
}

type handlerSpan struct {
	child  time.Duration
	shared bool
}

type solveSpan struct {
	start, end      time.Time
	edges, selected int
}

type roundSpan struct {
	start, end time.Time
	solves     []solveSpan
	marker     time.Duration // round_closed appends
	res        *platform.RoundResult
}

func newRecorder() *recorder {
	return &recorder{inflight: map[platform.EventKind]*handlerSpan{}}
}

// start clears the samples and opens the measured window.
func (r *recorder) start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = true
	r.handler, r.self, r.submit, r.submitBatch, r.appendOne, r.appendN = nil, nil, nil, nil, nil, nil
	r.rounds, r.solves = nil, nil
}

func (r *recorder) stop() {
	r.mu.Lock()
	r.on = false
	r.mu.Unlock()
}

// singleEventKind maps a single-event write route to the event it submits.
func singleEventKind(method, path string) (platform.EventKind, bool) {
	switch {
	case method == http.MethodPost && path == "/v1/workers":
		return platform.EventWorkerJoined, true
	case method == http.MethodPost && path == "/v1/tasks":
		return platform.EventTaskPosted, true
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/workers/"):
		return platform.EventWorkerLeft, true
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/tasks/"):
		return platform.EventTaskClosed, true
	}
	return "", false
}

// tracedHandler times the single-event write routes of the HTTP layer.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	kind, ok := singleEventKind(req.Method, req.URL.Path)
	if !ok {
		h.next.ServeHTTP(w, req)
		return
	}
	sp := &handlerSpan{}
	h.rec.mu.Lock()
	if prev, busy := h.rec.inflight[kind]; busy {
		prev.shared, sp.shared = true, true
	} else {
		h.rec.inflight[kind] = sp
	}
	h.rec.mu.Unlock()

	start := time.Now()
	h.next.ServeHTTP(w, req)
	d := time.Since(start)

	r := h.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight[kind] == sp {
		delete(r.inflight, kind)
	}
	if !r.on {
		return
	}
	r.handler = append(r.handler, us(d))
	if !sp.shared {
		r.self = append(r.self, us(d-sp.child))
	}
}

// backend times Backend's write paths.
type backend struct {
	inner platform.Backend
	rec   *recorder
}

func (b *backend) Submit(e platform.Event) (platform.Event, error) {
	start := time.Now()
	out, err := b.inner.Submit(e)
	d := time.Since(start)
	r := b.rec
	r.mu.Lock()
	if sp := r.inflight[e.Kind]; sp != nil {
		sp.child += d
	}
	if r.on {
		r.submit = append(r.submit, us(d))
	}
	r.mu.Unlock()
	return out, err
}

func (b *backend) CloseRoundCtx(ctx context.Context) (*platform.RoundResult, error) {
	r := b.rec
	sp := &roundSpan{start: time.Now()}
	r.mu.Lock()
	r.round = sp
	r.mu.Unlock()
	res, err := b.inner.CloseRoundCtx(ctx)
	sp.end = time.Now()
	r.mu.Lock()
	r.round = nil
	if r.on && err == nil {
		sp.res = res
		r.rounds = append(r.rounds, *sp)
	}
	r.mu.Unlock()
	return res, err
}

func (b *backend) Counts() (workers, tasks int)      { return b.inner.Counts() }
func (b *backend) Rounds() int                       { return b.inner.Rounds() }
func (b *backend) CheckpointNow() (any, bool, error) { return b.inner.CheckpointNow() }

type backendBatch struct{ b *backend }

func (x backendBatch) SubmitBatch(events []platform.Event) ([]platform.Event, error) {
	start := time.Now()
	out, err := x.b.inner.(platform.BatchSubmitter).SubmitBatch(events)
	x.b.rec.sample(&x.b.rec.submitBatch, time.Since(start))
	return out, err
}

// sample appends one duration in µs while the window is open.
func (r *recorder) sample(dst *[]float64, d time.Duration) {
	r.mu.Lock()
	if r.on {
		*dst = append(*dst, us(d))
	}
	r.mu.Unlock()
}

// Capability sets of wrapBackend's result, without the Backend methods
// (an embedded interface that repeated them would make them ambiguous).
type (
	submitsBatches interface {
		SubmitBatch([]platform.Event) ([]platform.Event, error)
	}
	reportsHealth interface{ Health() platform.HealthStatus }
	fenceable     interface {
		Epoch() uint64
		ObserveEpoch(uint64)
		FenceStatus() (bool, uint64)
	}
)

// wrapBackend wraps b, keeping exactly its optional capabilities.  Health
// and fencing pass through untimed.
func wrapBackend(b platform.Backend, rec *recorder) platform.Backend {
	w := &backend{inner: b, rec: rec}
	bs := backendBatch{w}
	hr, hasH := b.(platform.HealthReporter)
	fc, hasF := b.(platform.Fenceable)
	_, hasB := b.(platform.BatchSubmitter)
	switch {
	case hasB && hasH && hasF:
		return &struct {
			*backend
			submitsBatches
			reportsHealth
			fenceable
		}{w, bs, hr, fc}
	case hasB && hasH:
		return &struct {
			*backend
			submitsBatches
			reportsHealth
		}{w, bs, hr}
	case hasB && hasF:
		return &struct {
			*backend
			submitsBatches
			fenceable
		}{w, bs, fc}
	case hasH && hasF:
		return &struct {
			*backend
			reportsHealth
			fenceable
		}{w, hr, fc}
	case hasB:
		return &struct {
			*backend
			submitsBatches
		}{w, bs}
	case hasH:
		return &struct {
			*backend
			reportsHealth
		}{w, hr}
	case hasF:
		return &struct {
			*backend
			fenceable
		}{w, fc}
	}
	return w
}

// journal times appends; round markers are charged to the close in flight.
type journal struct {
	inner platform.Journal
	rec   *recorder
}

func (j *journal) Append(e platform.Event) error {
	start := time.Now()
	err := j.inner.Append(e)
	d := time.Since(start)
	r := j.rec
	r.mu.Lock()
	if e.Kind == platform.EventRoundClosed && r.round != nil {
		r.round.marker += d
	}
	if r.on {
		r.appendOne = append(r.appendOne, us(d))
	}
	r.mu.Unlock()
	return err
}

type journalBatch struct{ j *journal }

func (x journalBatch) AppendBatch(events []platform.Event) error {
	start := time.Now()
	err := x.j.inner.(platform.BatchJournal).AppendBatch(events)
	x.j.rec.sample(&x.j.rec.appendN, time.Since(start))
	return err
}

type (
	appendsBatches interface {
		AppendBatch([]platform.Event) error
	}
	poisonable interface{ Poisoned() bool }
)

// wrapJournal wraps j, keeping exactly its optional capabilities.
func wrapJournal(j platform.Journal, rec *recorder) platform.Journal {
	w := &journal{inner: j, rec: rec}
	_, hasB := j.(platform.BatchJournal)
	p, hasP := j.(poisonable)
	switch {
	case hasB && hasP:
		return &struct {
			*journal
			appendsBatches
			poisonable
		}{w, journalBatch{w}, p}
	case hasB:
		return &struct {
			*journal
			appendsBatches
		}{w, journalBatch{w}}
	case hasP:
		return &struct {
			*journal
			poisonable
		}{w, p}
	}
	return w
}

// solver times every solve entry point.  One per shard: ShardedService
// refuses a solver value shared between shards.
type solver struct {
	inner core.Solver
	shard int
	rec   *recorder
}

func (s *solver) Name() string { return s.inner.Name() }

func (s *solver) Solve(p *core.Problem, rng *stats.RNG) ([]int, error) {
	start := time.Now()
	sel, err := s.inner.Solve(p, rng)
	s.done(start, p, sel)
	return sel, err
}

// done records one solve and charges it to the close in flight.
func (s *solver) done(start time.Time, p *core.Problem, sel []int) {
	sp := solveSpan{start: start, end: time.Now(), edges: len(p.Edges), selected: len(sel)}
	r := s.rec
	r.mu.Lock()
	if r.round != nil {
		r.round.solves = append(r.round.solves, sp)
	}
	if r.on {
		r.solves = append(r.solves, sp)
	}
	r.mu.Unlock()
}

type solverCtx struct{ s *solver }

func (x solverCtx) SolveCtx(ctx context.Context, p *core.Problem, rng *stats.RNG) ([]int, error) {
	start := time.Now()
	sel, err := x.s.inner.(core.ContextSolver).SolveCtx(ctx, p, rng)
	x.s.done(start, p, sel)
	return sel, err
}

type solverDelta struct{ s *solver }

func (x solverDelta) SolveDeltaCtx(ctx context.Context, p *core.Problem, d *core.Delta, rng *stats.RNG) ([]int, error) {
	start := time.Now()
	sel, err := x.s.inner.(core.DeltaSolver).SolveDeltaCtx(ctx, p, d, rng)
	x.s.done(start, p, sel)
	return sel, err
}

type (
	solvesCtx interface {
		SolveCtx(context.Context, *core.Problem, *stats.RNG) ([]int, error)
	}
	solvesDelta interface {
		SolveDeltaCtx(context.Context, *core.Problem, *core.Delta, *stats.RNG) ([]int, error)
	}
	reportsSolve interface{ LastReport() core.SolveReport }
)

// wrapSolver wraps s for one shard, keeping exactly its optional
// capabilities.  Every call returns a new pointer, so per-shard wrappers
// are distinct values.
func wrapSolver(s core.Solver, shard int, rec *recorder) core.Solver {
	w := &solver{inner: s, shard: shard, rec: rec}
	sc, sd := solverCtx{w}, solverDelta{w}
	_, hasC := s.(core.ContextSolver)
	_, hasD := s.(core.DeltaSolver)
	rp, hasR := s.(core.SolveReporter)
	switch {
	case hasC && hasD && hasR:
		return &struct {
			*solver
			solvesCtx
			solvesDelta
			reportsSolve
		}{w, sc, sd, rp}
	case hasC && hasD:
		return &struct {
			*solver
			solvesCtx
			solvesDelta
		}{w, sc, sd}
	case hasC && hasR:
		return &struct {
			*solver
			solvesCtx
			reportsSolve
		}{w, sc, rp}
	case hasD && hasR:
		return &struct {
			*solver
			solvesDelta
			reportsSolve
		}{w, sd, rp}
	case hasC:
		return &struct {
			*solver
			solvesCtx
		}{w, sc}
	case hasD:
		return &struct {
			*solver
			solvesDelta
		}{w, sd}
	case hasR:
		return &struct {
			*solver
			reportsSolve
		}{w, rp}
	}
	return w
}

// layers turns the window's spans into per-layer figures.  Round-derived
// figures come from the RoundResult each close returned.
func (r *recorder) layers(st *stack) (map[string]reading, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]reading{}
	var errs []error
	pct := func(name string, samples []float64, q float64) {
		v, n, err := percentile(append([]float64(nil), samples...), q)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		out[name] = reading{V: v, N: n}
	}
	pct("server.handler_p50_us", r.handler, 0.5)
	pct("server.handler_p90_us", r.handler, 0.9)
	pct("server.self_p50_us", r.self, 0.5)
	pct("service.submit_p50_us", r.submit, 0.5)
	pct("service.submit_batch_p50_us", r.submitBatch, 0.5)
	pct("journal.append_p50_us", r.appendOne, 0.5)
	pct("journal.append_batch_p50_us", r.appendN, 0.5)

	var closeMS, otherMS, maxMS, sumMS, shardOtherMS, dirty, cpMS []float64
	var warm, fallback, dropped, refilled float64
	for _, rd := range r.rounds {
		total := rd.end.Sub(rd.start)
		closeMS = append(closeMS, ms(total))
		var maxD, sumD time.Duration
		for _, s := range rd.solves {
			d := s.end.Sub(s.start)
			maxD = max(maxD, d)
			sumD += d
		}
		otherMS = append(otherMS, ms(total-covered(rd.solves)-rd.marker))
		maxMS = append(maxMS, ms(maxD))
		sumMS = append(sumMS, ms(sumD))
		shardOtherMS = append(shardOtherMS, ms(total-maxD))

		res := rd.res
		dropped += float64(res.ReconcileDropped)
		refilled += float64(res.ReconcileRefilled)
		// A single market reports its solve provenance on the result
		// itself, a sharded one per shard.
		prov := res.Shards
		if len(prov) == 0 {
			prov = []platform.ShardRound{{
				Checkpointed:      res.Checkpointed,
				WarmStarted:       res.WarmStarted,
				FullSolveFallback: res.FullSolveFallback,
				DirtyFraction:     res.DirtyFraction,
			}}
		}
		checkpointed := false
		for _, sh := range prov {
			checkpointed = checkpointed || sh.Checkpointed
			if sh.WarmStarted {
				warm++
			}
			if sh.FullSolveFallback {
				fallback++
			}
			dirty = append(dirty, sh.DirtyFraction)
		}
		if checkpointed {
			cpMS = append(cpMS, ms(total))
		}
	}
	pct("service.close_round_p50_ms", closeMS, 0.5)
	pct("service.round_other_p50_ms", otherMS, 0.5)
	pct("sharded.shard_solve_max_p50_ms", maxMS, 0.5)
	pct("sharded.shard_solve_sum_p50_ms", sumMS, 0.5)
	pct("sharded.other_p50_ms", shardOtherMS, 0.5)
	pct("core.dirty_fraction_p50", dirty, 0.5)

	var solveMS, edges, selected []float64
	for _, s := range r.solves {
		solveMS = append(solveMS, ms(s.end.Sub(s.start)))
		edges = append(edges, float64(s.edges))
		selected = append(selected, float64(s.selected))
	}
	pct("core.solve_p50_ms", solveMS, 0.5)
	pct("core.solve_p90_ms", solveMS, 0.9)
	pct("core.edges_p50", edges, 0.5)
	pct("core.selected_p50", selected, 0.5)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if len(cpMS) == 0 {
		return nil, errors.New("checkpoint.round_mean_ms: no checkpoint round in the window")
	}

	rounds, shardRounds := float64(len(r.rounds)), float64(len(dirty))
	out["sharded.reconcile_dropped_per_round"] = reading{V: dropped / rounds, N: len(r.rounds)}
	out["sharded.reconcile_refilled_per_round"] = reading{V: refilled / rounds, N: len(r.rounds)}
	out["core.warm_frac"] = reading{V: warm / shardRounds, N: len(dirty)}
	out["core.fallback_frac"] = reading{V: fallback / shardRounds, N: len(dirty)}
	var cpSum float64
	for _, x := range cpMS {
		cpSum += x
	}
	out["checkpoint.count"] = reading{V: float64(len(cpMS))}
	out["checkpoint.round_mean_ms"] = reading{V: cpSum / float64(len(cpMS)), N: len(cpMS)}

	// Journal footprint over the segments still on disk (checkpoints retire
	// older ones), and the newest snapshot of each market.
	var bytes, events, segCount, snapBytes float64
	for k, seg := range st.segs {
		infos := seg.Segments()
		if len(infos) == 0 {
			continue
		}
		segCount += float64(len(infos))
		for _, si := range infos {
			bytes += float64(si.Size)
		}
		events += float64(st.states[k].Seq() - infos[0].FirstSeq + 1)
		snapBytes += newestSnapshotBytes(seg.Dir())
	}
	if events <= 0 {
		return nil, errors.New("journal.bytes_per_event: no journaled events on disk")
	}
	out["journal.bytes_per_event"] = reading{V: bytes / events, N: int(events)}
	out["journal.segments"] = reading{V: segCount}
	out["checkpoint.snapshot_bytes"] = reading{V: snapBytes}
	return out, nil
}

// covered is the length of the union of the spans' intervals: the wall
// time the round spent solving, with concurrent shard solves counted once.
func covered(spans []solveSpan) time.Duration {
	var total time.Duration
	var end time.Time
	sorted := append([]solveSpan(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	for _, s := range sorted {
		start := s.start
		if start.Before(end) {
			start = end
		}
		if s.end.After(start) {
			total += s.end.Sub(start)
			end = s.end
		}
	}
	return total
}

// newestSnapshotBytes is the size of the newest snapshot file in dir.
func newestSnapshotBytes(dir string) float64 {
	names, _ := filepath.Glob(filepath.Join(dir, "snapshot.*.mba"))
	if len(names) == 0 {
		return 0
	}
	newest := names[0]
	for _, n := range names {
		if n > newest { // fixed-width sequence numbers sort lexically
			newest = n
		}
	}
	fi, err := os.Stat(newest)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}
