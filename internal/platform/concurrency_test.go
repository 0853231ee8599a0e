package platform

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/stats"
)

// TestServiceConcurrentMutationsAndRounds hammers the service with
// mutations from many goroutines while rounds close concurrently, then
// checks the two invariants the snapshot-solve-commit protocol and the
// atomic apply-and-append must preserve:
//
//   - no lost or reordered events: the journal holds exactly one line per
//     successful Submit, in strictly increasing sequence order (ReadLog
//     rejects anything else);
//   - journal/state equivalence: replaying the journal into a fresh state
//     reproduces the live state exactly.
//
// Run under -race (the Makefile verify gate does) this is also the data
// race test for the round protocol.
func TestServiceConcurrentMutationsAndRounds(t *testing.T) {
	var buf bytes.Buffer
	svc := mustService(t, NewLog(&buf))

	const (
		goroutines = 8
		iterations = 40
		rounds     = 6
	)
	var succeeded atomic.Int64
	submit := func(e Event) bool {
		if _, err := svc.Submit(e); err != nil {
			return false
		}
		succeeded.Add(1)
		return true
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				wEv, err := svc.Submit(NewWorkerJoined(validWorker()))
				if err != nil {
					t.Error(err)
					return
				}
				succeeded.Add(1)
				tEv, err := svc.Submit(NewTaskPosted(validTask()))
				if err != nil {
					t.Error(err)
					return
				}
				succeeded.Add(1)
				// Churn: remove some of what this goroutine created — no other
				// goroutine touches these IDs, so success is deterministic.
				if i%3 == 0 {
					if !submit(NewWorkerLeft(wEv.Worker.ID)) {
						t.Errorf("worker %d could not leave", wEv.Worker.ID)
						return
					}
				}
				if i%4 == 0 {
					if !submit(NewTaskClosed(tEv.Task.ID)) {
						t.Errorf("task %d could not close", tEv.Task.ID)
						return
					}
				}
			}
		}(g)
	}

	roundErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := svc.CloseRound(); err != nil {
				roundErr <- err
				return
			}
		}
		roundErr <- nil
	}()

	wg.Wait()
	if err := <-roundErr; err != nil {
		t.Fatalf("CloseRound: %v", err)
	}
	if t.Failed() {
		return
	}

	// ReadLog enforces strictly increasing sequence numbers, so a torn or
	// interleaved append fails right here.
	events, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("journal corrupted: %v", err)
	}
	want := int(succeeded.Load()) + rounds // one marker per round
	if len(events) != want {
		t.Fatalf("journal has %d events, want %d (no lost or duplicated writes)", len(events), want)
	}

	replayed, err := Replay(svc.State().NumCategories(), events)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	gotW, gotT := svc.State().Counts()
	repW, repT := replayed.Counts()
	if gotW != repW || gotT != repT {
		t.Fatalf("replayed counts (%d workers, %d tasks) != live (%d, %d)", repW, repT, gotW, gotT)
	}
	if svc.State().Rounds() != replayed.Rounds() {
		t.Fatalf("replayed rounds %d != live %d", replayed.Rounds(), svc.State().Rounds())
	}
	liveIn, liveWIDs, liveTIDs := svc.State().Snapshot()
	repIn, repWIDs, repTIDs := replayed.Snapshot()
	if !reflect.DeepEqual(liveWIDs, repWIDs) || !reflect.DeepEqual(liveTIDs, repTIDs) {
		t.Fatal("replayed identity mappings differ from live state")
	}
	if !reflect.DeepEqual(liveIn, repIn) {
		t.Fatal("replayed snapshot differs from live state")
	}
}

// gatedSolver wraps an inner solver with a handshake: Solve signals entry,
// then blocks until released.  It lets a test hold a round open mid-solve
// at a deterministic point.
type gatedSolver struct {
	inner    core.Solver
	entered  chan struct{}
	released chan struct{}
}

func (g *gatedSolver) Name() string { return "gated-" + g.inner.Name() }

func (g *gatedSolver) Solve(p *core.Problem, r *stats.RNG) ([]int, error) {
	close(g.entered)
	<-g.released
	return g.inner.Solve(p, r)
}

// TestCloseRoundDoesNotBlockSubmits pins the headline property of the
// round protocol — a slow solve holds no lock the ingestion path needs —
// and the commit-time validation: entities removed mid-solve are dropped
// from the result as stale rather than assigned.
func TestCloseRoundDoesNotBlockSubmits(t *testing.T) {
	state := mustState(t)
	gate := &gatedSolver{
		inner:    core.Greedy{Kind: core.MutualWeight},
		entered:  make(chan struct{}),
		released: make(chan struct{}),
	}
	svc, err := NewService(state, gate, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var workerIDs []int
	for i := 0; i < 4; i++ {
		ev, err := svc.Submit(NewWorkerJoined(validWorker()))
		if err != nil {
			t.Fatal(err)
		}
		workerIDs = append(workerIDs, ev.Worker.ID)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
			t.Fatal(err)
		}
	}

	type roundOut struct {
		res *RoundResult
		err error
	}
	done := make(chan roundOut, 1)
	go func() {
		res, err := svc.CloseRound()
		done <- roundOut{res, err}
	}()

	// The solver is now provably mid-round.  Every mutation below must
	// complete while it is still blocked; if the round held a lock the
	// ingestion path needs, these Submits would deadlock the test.
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never entered")
	}
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
		t.Fatalf("submit during round: %v", err)
	}
	// Remove every worker the snapshot saw: all solved pairs become stale.
	for _, id := range workerIDs {
		if _, err := svc.Submit(NewWorkerLeft(id)); err != nil {
			t.Fatalf("worker %d leave during round: %v", id, err)
		}
	}
	close(gate.released)

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Pairs) != 0 {
		t.Fatalf("round committed %d pairs against departed workers", len(out.res.Pairs))
	}
	if out.res.StalePairs == 0 {
		t.Fatal("expected stale pairs after removing all snapshot workers mid-solve")
	}
	if out.res.Metrics.Pairs != out.res.StalePairs {
		t.Fatalf("metrics report %d assigned but %d went stale", out.res.Metrics.Pairs, out.res.StalePairs)
	}
}

// countingJournal counts the events appended to it.
type countingJournal struct{ n atomic.Int64 }

func (j *countingJournal) Append(Event) error { j.n.Add(1); return nil }

func (j *countingJournal) AppendBatch(evs []Event) error { j.n.Add(int64(len(evs))); return nil }

// TestCloseRoundFencedMidSolve pins the fence's second check: a higher
// epoch observed while a round is solving stops the round before it
// journals a marker or hands out assignments, at one shard and at several.
func TestCloseRoundFencedMidSolve(t *testing.T) {
	for _, n := range []int{1, 2} {
		released := make(chan struct{})
		gates := make([]*gatedSolver, n)
		bundles := make([]Shard, n)
		journals := make([]*countingJournal, n)
		for k := range bundles {
			gates[k] = &gatedSolver{
				inner:    core.Greedy{Kind: core.MutualWeight},
				entered:  make(chan struct{}),
				released: released,
			}
			journals[k] = &countingJournal{}
			bundles[k] = Shard{State: mustState(t), Solver: gates[k], Journal: journals[k]}
		}
		svc, err := NewShardedService(bundles, benefit.DefaultParams(), ShardedOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
				t.Fatal(err)
			}
		}
		appended := make([]int64, n)
		for k, j := range journals {
			appended[k] = j.n.Load()
		}

		done := make(chan error, 1)
		go func() {
			_, err := svc.CloseRound()
			done <- err
		}()
		select {
		case <-gates[0].entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d shard(s): solver never entered", n)
		}
		svc.ObserveEpoch(svc.Epoch() + 1)
		close(released)

		if err := <-done; !errors.Is(err, ErrFenced) {
			t.Fatalf("%d shard(s): round fenced mid-solve returned %v, want ErrFenced", n, err)
		}
		for k := 0; k < n; k++ {
			if r := svc.ShardState(k).Rounds(); r != 0 {
				t.Fatalf("%d shard(s): shard %d committed %d round(s) after the fence", n, k, r)
			}
			if got := journals[k].n.Load(); got != appended[k] {
				t.Fatalf("%d shard(s): shard %d journal grew %d -> %d after the fence", n, k, appended[k], got)
			}
		}
	}
}
