package main

import (
	"context"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
)

// full implements every capability of all three wrapped seams; the test
// tables embed it behind interfaces to build inner values with exactly
// one subset of capabilities.
type full struct{ calls int }

func (f *full) Submit(platform.Event) (platform.Event, error) { return platform.Event{}, nil }
func (f *full) CloseRoundCtx(context.Context) (*platform.RoundResult, error) {
	return &platform.RoundResult{}, nil
}
func (f *full) Counts() (int, int)                { return 0, 0 }
func (f *full) Rounds() int                       { return 0 }
func (f *full) CheckpointNow() (any, bool, error) { return nil, false, nil }
func (f *full) SubmitBatch([]platform.Event) ([]platform.Event, error) {
	f.calls++
	return nil, nil
}
func (f *full) Health() platform.HealthStatus { return platform.HealthStatus{} }
func (f *full) Epoch() uint64                 { return 0 }
func (f *full) ObserveEpoch(uint64)           {}
func (f *full) FenceStatus() (bool, uint64)   { return false, 0 }

func (f *full) Append(platform.Event) error { return nil }
func (f *full) AppendBatch([]platform.Event) error {
	f.calls++
	return nil
}
func (f *full) Poisoned() bool { return false }

func (f *full) Name() string                                   { return "full" }
func (f *full) Solve(*core.Problem, *stats.RNG) ([]int, error) { return nil, nil }
func (f *full) SolveCtx(context.Context, *core.Problem, *stats.RNG) ([]int, error) {
	f.calls++
	return nil, nil
}
func (f *full) SolveDeltaCtx(context.Context, *core.Problem, *core.Delta, *stats.RNG) ([]int, error) {
	f.calls++
	return nil, nil
}
func (f *full) LastReport() core.SolveReport { return core.SolveReport{ServedBy: "full"} }

// caps lists which optional capabilities v has, in a fixed order.
func backendCaps(v any) [3]bool {
	_, b := v.(platform.BatchSubmitter)
	_, h := v.(platform.HealthReporter)
	_, f := v.(platform.Fenceable)
	return [3]bool{b, h, f}
}

func journalCaps(v any) [2]bool {
	_, b := v.(platform.BatchJournal)
	_, p := v.(interface{ Poisoned() bool })
	return [2]bool{b, p}
}

func solverCaps(v any) [3]bool {
	_, c := v.(core.ContextSolver)
	_, d := v.(core.DeltaSolver)
	_, r := v.(core.SolveReporter)
	return [3]bool{c, d, r}
}

func TestBackendWrapperKeepsExactlyInnerCapabilities(t *testing.T) {
	f := &full{}
	type base = platform.Backend
	inners := []base{
		struct{ base }{f},
		struct {
			base
			submitsBatches
		}{f, f},
		struct {
			base
			reportsHealth
		}{f, f},
		struct {
			base
			fenceable
		}{f, f},
		struct {
			base
			submitsBatches
			reportsHealth
		}{f, f, f},
		struct {
			base
			submitsBatches
			fenceable
		}{f, f, f},
		struct {
			base
			reportsHealth
			fenceable
		}{f, f, f},
		f,
	}
	seen := map[[3]bool]bool{}
	for _, in := range inners {
		want := backendCaps(in)
		seen[want] = true
		w := wrapBackend(in, newRecorder())
		if got := backendCaps(w); got != want {
			t.Errorf("inner %T has %v, wrapper %v", in, want, got)
		}
		if bs, ok := w.(platform.BatchSubmitter); ok {
			before := f.calls
			bs.SubmitBatch(nil)
			if f.calls != before+1 {
				t.Errorf("wrapper of %T did not forward SubmitBatch", in)
			}
		}
	}
	if len(seen) != 8 {
		t.Errorf("table covers %d of 8 capability sets", len(seen))
	}
}

func TestJournalWrapperKeepsExactlyInnerCapabilities(t *testing.T) {
	f := &full{}
	type base = platform.Journal
	inners := []base{
		struct{ base }{f},
		struct {
			base
			appendsBatches
		}{f, f},
		struct {
			base
			poisonable
		}{f, f},
		f,
	}
	for _, in := range inners {
		want := journalCaps(in)
		w := wrapJournal(in, newRecorder())
		if got := journalCaps(w); got != want {
			t.Errorf("inner %T has %v, wrapper %v", in, want, got)
		}
	}

	// The serving journal: a segmented log has both capabilities.
	seg, err := platform.OpenSegmentedLog(t.TempDir(), platform.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if got := journalCaps(wrapJournal(seg, newRecorder())); got != [2]bool{true, true} {
		t.Errorf("wrapped segmented log has %v", got)
	}
}

func TestSolverWrapperKeepsExactlyInnerCapabilities(t *testing.T) {
	f := &full{}
	type base = core.Solver
	inners := []base{
		struct{ base }{f},
		struct {
			base
			solvesCtx
		}{f, f},
		struct {
			base
			solvesDelta
		}{f, f},
		struct {
			base
			reportsSolve
		}{f, f},
		struct {
			base
			solvesCtx
			solvesDelta
		}{f, f, f},
		struct {
			base
			solvesCtx
			reportsSolve
		}{f, f, f},
		struct {
			base
			solvesDelta
			reportsSolve
		}{f, f, f},
		f,
	}
	// Every registered solver too: these are what a server can run.
	for _, name := range core.SolverNames() {
		s, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inners = append(inners, s)
	}
	seen := map[[3]bool]bool{}
	p := &core.Problem{}
	for _, in := range inners {
		want := solverCaps(in)
		seen[want] = true
		rec := newRecorder()
		w := wrapSolver(in, 0, rec)
		if got := solverCaps(w); got != want {
			t.Errorf("inner %T (%s) has %v, wrapper %v", in, in.Name(), want, got)
		}
		if w.Name() != in.Name() {
			t.Errorf("wrapper renamed %s to %s", in.Name(), w.Name())
		}
		if in == core.Solver(f) {
			rec.start()
			w.(core.ContextSolver).SolveCtx(context.Background(), p, nil)
			w.(core.DeltaSolver).SolveDeltaCtx(context.Background(), p, nil, nil)
			if len(rec.solves) != 2 || f.calls != 2 {
				t.Errorf("solves recorded %d, forwarded %d; want 2 and 2", len(rec.solves), f.calls)
			}
			if w.(core.SolveReporter).LastReport().ServedBy != "full" {
				t.Error("LastReport not forwarded")
			}
		}
	}
	if len(seen) != 8 {
		t.Errorf("table covers %d of 8 capability sets", len(seen))
	}
}

// TestShardSolverWrappersAreDistinct checks that each shard gets its own
// wrapper value, which NewShardedService requires.
func TestShardSolverWrappersAreDistinct(t *testing.T) {
	rec := newRecorder()
	const shards = 4
	bundles := make([]platform.Shard, shards)
	seen := map[core.Solver]bool{}
	for k := range bundles {
		s, err := core.ByName("incremental")
		if err != nil {
			t.Fatal(err)
		}
		w := wrapSolver(s, k, rec)
		if seen[w] {
			t.Fatalf("shard %d got a wrapper value another shard has", k)
		}
		seen[w] = true
		st, err := platform.NewState(8)
		if err != nil {
			t.Fatal(err)
		}
		bundles[k] = platform.Shard{State: st, Solver: w}
	}
	if _, err := platform.NewShardedService(bundles, benefit.Params{Lambda: 0.5, Beta: 0.5}, platform.ShardedOptions{}, 1); err != nil {
		t.Fatalf("sharded service refused per-shard wrappers: %v", err)
	}
}

// TestServingStackIsFullyWrapped builds the traced server stack of each
// workload and checks the backend kept every capability the platform
// uses on it.
func TestServingStackIsFullyWrapped(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			st, err := buildStack(serveConfig{dir: t.TempDir(), categories: wl.categories, shards: wl.shards, solver: wl.solver, trace: true}, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, seg := range st.segs {
					seg.Close()
				}
			}()
			if got := backendCaps(st.backend); got != [3]bool{true, true, true} {
				t.Errorf("traced backend has %v", got)
			}
			if len(st.segs) != wl.shards {
				t.Errorf("%d journals for %d shards", len(st.segs), wl.shards)
			}
		})
	}
}
