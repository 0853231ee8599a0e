package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

// AssignmentPair reports one assigned pair in platform identities.
type AssignmentPair struct {
	WorkerID int     `json:"worker_id"`
	TaskID   int     `json:"task_id"`
	Quality  float64 `json:"quality"`
	Utility  float64 `json:"utility"`
	Mutual   float64 `json:"mutual"`
}

// RoundResult is the outcome of one assignment round over the live state.
type RoundResult struct {
	Round int              `json:"round"`
	Pairs []AssignmentPair `json:"pairs"`
	// Metrics describe the round's assignment after cross-shard
	// reconciliation and before the live filter, so pairs later counted in
	// StalePairs are included.
	Metrics core.Metrics `json:"metrics"`
	// StalePairs counts assignments the solver produced that were dropped
	// at commit time because their worker left or their task closed while
	// the round was solving.
	StalePairs int `json:"stale_pairs,omitempty"`
	// Seq is the journal sequence number of this round's marker event —
	// the handle for locating the round in the log after recovery.
	Seq uint64 `json:"seq,omitempty"`
	// ServedBy / DegradedFrom / SolveTimedOut mirror core.SolveReport when
	// the solver is a composite (core.Degrader): which stage served the
	// round, what it degraded from, and whether a deadline fired.
	ServedBy      string `json:"served_by,omitempty"`
	DegradedFrom  string `json:"degraded_from,omitempty"`
	SolveTimedOut bool   `json:"solve_timed_out,omitempty"`
	// WarmStarted / DirtyFraction / FullSolveFallback mirror the incremental
	// provenance of core.SolveReport when the solver is delta-aware: whether
	// the round reused carried dual state, how much of the problem had
	// churned, and whether carried state had to be discarded for a full
	// re-solve.
	WarmStarted       bool    `json:"warm_started,omitempty"`
	DirtyFraction     float64 `json:"dirty_fraction,omitempty"`
	FullSolveFallback bool    `json:"full_solve_fallback,omitempty"`
	// SolveError is set when the solve failed outright (every degrader
	// stage exhausted, or a panicking solver).  The round still closed —
	// its marker is journaled — but assigned nothing.
	SolveError string `json:"solve_error,omitempty"`
	// Checkpointed reports that this round's close triggered a successful
	// checkpoint (snapshot + journal compaction); CheckpointError records
	// a failed attempt.  Checkpointing is an optimization of recovery
	// time, so its failure never fails the round.
	Checkpointed    bool   `json:"checkpointed,omitempty"`
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// Shards carries per-shard provenance when the market has more than one
	// shard; a one-shard market reports its provenance in the fields above
	// instead.  ReconcileDropped / ReconcileRefilled count the cross-shard
	// reconciliation churn: optimistic picks dropped because a spanning
	// worker was over-subscribed across shards, and freed slots refilled
	// from the owning shards' remaining edges.
	Shards            []ShardRound `json:"shards,omitempty"`
	ReconcileDropped  int          `json:"reconcile_dropped,omitempty"`
	ReconcileRefilled int          `json:"reconcile_refilled,omitempty"`
}

// ShardRound is one shard's provenance inside an aggregated RoundResult:
// the shard's market size at snapshot time, its share of the committed
// pairs, and its solve/checkpoint provenance.
type ShardRound struct {
	Shard   int `json:"shard"`
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	Pairs   int `json:"pairs"`
	// ReconcileDropped / ReconcileRefilled are this shard's share of the
	// cross-shard reconciliation churn: optimistic picks dropped because a
	// spanning worker was over-subscribed, and freed slots refilled from
	// this shard's remaining edges.
	ReconcileDropped  int     `json:"reconcile_dropped,omitempty"`
	ReconcileRefilled int     `json:"reconcile_refilled,omitempty"`
	StalePairs        int     `json:"stale_pairs,omitempty"`
	Seq               uint64  `json:"seq,omitempty"`
	ServedBy          string  `json:"served_by,omitempty"`
	DegradedFrom      string  `json:"degraded_from,omitempty"`
	SolveTimedOut     bool    `json:"solve_timed_out,omitempty"`
	WarmStarted       bool    `json:"warm_started,omitempty"`
	DirtyFraction     float64 `json:"dirty_fraction,omitempty"`
	FullSolveFallback bool    `json:"full_solve_fallback,omitempty"`
	SolveError        string  `json:"solve_error,omitempty"`
	Checkpointed      bool    `json:"checkpointed,omitempty"`
	CheckpointError   string  `json:"checkpoint_error,omitempty"`
}

// ErrFenced is returned by the write paths (Submit, SubmitBatch,
// CloseRound) once the service has observed a replication epoch higher
// than its own: another process has been promoted, and anything journaled
// here would diverge from the new primary's history.  The HTTP layer maps
// it to 409 with the X-MBA-Epoch header so clients can re-resolve the
// primary.
var ErrFenced = errors.New("platform: fenced by a higher replication epoch")

// ErrStreamUnsupported is returned by JournalEventsSince when the service
// has no single segmented journal to stream from (journal-less, a
// single-file Log, or more than one shard).
var ErrStreamUnsupported = errors.New("platform: journal streaming requires a segmented journal")

// ErrNoSnapshot is returned by LatestSnapshot when no decodable snapshot
// exists (checkpointing never ran, or every generation is corrupt).
var ErrNoSnapshot = errors.New("platform: no snapshot available")

// Shard bundles the resources one shard of a Service owns: its own State,
// an optional journal, its own solver instance, and an optional checkpoint
// manager over that state.  Ownership is strict — nothing may be shared
// between shards: states and journals because each shard is an independent
// event-sourced market, solvers because stateful ones (core.IncrementalExact,
// core.Degrader) carry per-market duals and reports and the shards solve
// concurrently.
type Shard struct {
	State      *State
	Journal    Journal // optional; nil disables journaling for this shard
	Solver     core.Solver
	Checkpoint *CheckpointManager // optional
}

// ShardedOptions tunes a Service.
type ShardedOptions struct {
	// Parallel bounds the per-shard solve fan-out inside CloseRound; 0
	// means GOMAXPROCS, always capped at the shard count.
	Parallel int
}

// shardRuntime is one shard plus its round-serving scratch.
type shardRuntime struct {
	id         int
	state      *State
	journal    Journal
	solver     core.Solver
	checkpoint *CheckpointManager
	rng        *stats.RNG    // touched only by this shard's solve goroutine
	prev       *core.Problem // previous round's arena; guarded by roundMu
}

// submit applies an event to this shard.  With a journal attached, the
// apply and the append happen atomically under the state mutex
// (State.ApplyJournaled): sequence numbers are assigned inside the apply,
// so journal lines land in strictly increasing order, and if the append
// fails the apply is rolled back — the event happened nowhere.
func (sh *shardRuntime) submit(e Event) (Event, error) {
	if sh.journal == nil {
		return sh.state.Apply(e)
	}
	return sh.state.ApplyJournaled(e, sh.journal.Append)
}

// submitBatch applies this shard's slice of a batch atomically: every event
// applies and the slice lands in the journal as one contiguous append (one
// write + one fsync), or none of it happens.  Requires the journal (if any)
// to implement BatchJournal; *Log and *SegmentedLog both do.
func (sh *shardRuntime) submitBatch(events []Event) ([]Event, error) {
	if sh.journal == nil {
		return sh.state.ApplyBatchJournaled(events, nil)
	}
	bj, ok := sh.journal.(BatchJournal)
	if !ok {
		return nil, fmt.Errorf("platform: journal %T cannot append batches atomically", sh.journal)
	}
	return sh.state.ApplyBatchJournaled(events, bj.AppendBatch)
}

// inverses returns the compensation list for a batch slice about to be
// applied to this shard: inv[j] undoes events[j].  The profile a leave or
// close needs comes from earlier in the slice or else from the shard's
// state, which cannot change before the apply while the caller holds the
// service mutex.
func (sh *shardRuntime) inverses(events []Event) ([]Event, error) {
	inv := make([]Event, len(events))
	workers := map[int]market.Worker{}
	tasks := map[int]market.Task{}
	for j, e := range events {
		switch e.Kind {
		case EventWorkerJoined:
			workers[e.Worker.ID] = *e.Worker
			inv[j] = NewWorkerLeft(e.Worker.ID)
		case EventWorkerLeft:
			w, ok := workers[*e.WorkerID]
			if !ok {
				if w, ok = sh.state.Worker(*e.WorkerID); !ok {
					return nil, fmt.Errorf("platform: worker %d in routing table but not in shard %d", *e.WorkerID, sh.id)
				}
			}
			inv[j] = NewWorkerJoined(w)
		case EventTaskPosted:
			tasks[e.Task.ID] = *e.Task
			inv[j] = NewTaskClosed(e.Task.ID)
		case EventTaskClosed:
			t, ok := tasks[*e.TaskID]
			if !ok {
				if t, ok = sh.state.Task(*e.TaskID); !ok {
					return nil, fmt.Errorf("platform: task %d in routing table but not in shard %d", *e.TaskID, sh.id)
				}
			}
			inv[j] = NewTaskPosted(t)
		}
	}
	return inv, nil
}

// Service serves one logical market partitioned into N ≥ 1 shard markets
// (see ShardRouter for the placement rule); a one-shard Service is the
// plain single market of the paper.  Each shard owns its own State,
// journal and checkpoint machinery, so any single shard recovers
// independently and byte-identically.  The service owns the global
// identity space: platform IDs are assigned once here (starting at 1) and
// submitted to the target shards as explicit IDs, so an entity has the
// same ID in every shard it is resident in.
//
// Concurrency model: Submit serialises on the service mutex (validation is
// done before fan-out, so multi-shard applies fail only on journal I/O, and
// a partial failure is compensated by rolling the already-applied shards
// back).  CloseRound holds no service-wide lock during the expensive work,
// so ingestion continues at full rate while a round closes: each shard
// snapshots its own state, rebuilds into its own retained problem arena
// and solves — fanned across a bounded worker pool — then a sequential
// reconciliation pass resolves spanning workers, and each shard commits its
// share (filter-live, round marker, checkpoint notification).  Rounds
// serialise among themselves on roundMu.
//
// Invariant (reconciliation): the merged assignment never over-subscribes a
// worker, even one resident in several shards, and never over-fills a task
// (a task lives in exactly one shard, whose solver already respects its
// replication).
type Service struct {
	params benefit.Params
	router ShardRouter
	shards []*shardRuntime
	par    int

	mu           sync.Mutex
	nextWorkerID int
	nextTaskID   int
	workerHome   map[int][]int // live worker ID → resident shards (sorted)
	taskHome     map[int]int   // open task ID → owning shard

	roundMu sync.Mutex // serialises CloseRound; guards every shard's prev

	// fencedBy is the highest foreign replication epoch this service has
	// observed (via the X-MBA-Epoch request header, or ObserveEpoch
	// directly).  When it exceeds the service's own epoch the service is
	// fenced: a newer primary exists, so committing anything here would
	// split-brain the market.  One fence covers every shard — the shards
	// fail over as a unit or not at all.
	fencedBy atomic.Uint64
	// promotedAt is the journal seq of the epoch bump this service wrote
	// when it took over from a failed primary (0 = never promoted).
	promotedAt atomic.Uint64

	// repairedWorkers counts the partial multi-shard worker writes reindex
	// converged to absent during recovery (see reindex).
	repairedWorkers int
}

// NewService wires a one-shard service over a single market.  journal may
// be nil (no journaling); both *Log and *SegmentedLog satisfy it.  Attach
// checkpointing with SetCheckpointer.
func NewService(state *State, solver core.Solver, params benefit.Params, journal Journal, seed uint64) (*Service, error) {
	return NewShardedService([]Shard{{State: state, Journal: journal, Solver: solver}}, params, ShardedOptions{}, seed)
}

// NewShardedService wires a service over per-shard resource bundles.  All
// states must share one category universe; recovered states are
// re-indexed into the routing tables (and cross-checked against the
// router, which catches recovering with a different -shards than the
// directory was written with).  seed derives every shard's RNG stream;
// shard 0's stream is seed itself.
func NewShardedService(shards []Shard, params benefit.Params, opts ShardedOptions, seed uint64) (*Service, error) {
	if len(shards) < 1 {
		return nil, fmt.Errorf("platform: service needs at least one shard")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	numCategories := 0
	solverPtrs := map[uintptr]int{}
	for k := range shards {
		if shards[k].State == nil {
			return nil, fmt.Errorf("platform: shard %d has nil state", k)
		}
		if shards[k].Solver == nil {
			return nil, fmt.Errorf("platform: shard %d has nil solver", k)
		}
		if k == 0 {
			numCategories = shards[k].State.NumCategories()
		} else if shards[k].State.NumCategories() != numCategories {
			return nil, fmt.Errorf("platform: shard %d has %d categories, shard 0 has %d",
				k, shards[k].State.NumCategories(), numCategories)
		}
		// Stateful solvers must not be shared between concurrently solving
		// shards; a shared pointer is almost certainly that mistake.
		if v := reflect.ValueOf(shards[k].Solver); v.Kind() == reflect.Pointer {
			if prev, dup := solverPtrs[v.Pointer()]; dup {
				return nil, fmt.Errorf("platform: shards %d and %d share one solver instance", prev, k)
			}
			solverPtrs[v.Pointer()] = k
		}
	}

	ss := &Service{
		params:       params,
		router:       ShardRouter{Shards: len(shards)},
		par:          opts.Parallel,
		nextWorkerID: 1,
		nextTaskID:   1,
		workerHome:   map[int][]int{},
		taskHome:     map[int]int{},
	}
	if ss.par <= 0 {
		ss.par = runtime.GOMAXPROCS(0)
	}
	if ss.par > len(shards) {
		ss.par = len(shards)
	}
	if ss.par < 1 {
		ss.par = 1
	}
	for k := range shards {
		// Guard against typed-nil journals: callers pass a possibly-nil
		// *Log or *SegmentedLog variable, which would otherwise arrive as a
		// non-nil interface wrapping nothing.
		journal := shards[k].Journal
		switch j := journal.(type) {
		case *Log:
			if j == nil {
				journal = nil
			}
		case *SegmentedLog:
			if j == nil {
				journal = nil
			}
		}
		ss.shards = append(ss.shards, &shardRuntime{
			id:         k,
			state:      shards[k].State,
			journal:    journal,
			solver:     shards[k].Solver,
			checkpoint: shards[k].Checkpoint,
			rng:        stats.NewRNG(seed + uint64(k)*0x9e3779b97f4a7c15),
		})
	}
	if err := ss.reindex(); err != nil {
		return nil, err
	}
	return ss, nil
}

// reindex rebuilds the routing tables and global ID counters from the shard
// states (the recovery path: per-shard RecoverDir, then NewShardedService).
// Residency that contradicts the router — a worker or task in a shard the
// router would not place it in, or a spanning worker missing from one of
// its shards — is a hard error: it means the directory was written under a
// different shard count.
func (ss *Service) reindex() error {
	specialties := map[int][]int{} // worker ID → specialties (first sighting)
	seen := map[int][]int{}        // worker ID → shards actually resident in
	for k, sh := range ss.shards {
		in, workerIDs, taskIDs := sh.state.Snapshot()
		for i, wid := range workerIDs {
			if _, ok := specialties[wid]; !ok {
				specialties[wid] = in.Workers[i].Specialties
			}
			seen[wid] = append(seen[wid], k)
		}
		for j, tid := range taskIDs {
			want := ss.router.TaskShard(in.Tasks[j].Category)
			if want != k {
				return fmt.Errorf("platform: task %d (category %d) recovered in shard %d, router places it in shard %d — shard count mismatch?",
					tid, in.Tasks[j].Category, k, want)
			}
			if prev, dup := ss.taskHome[tid]; dup {
				return fmt.Errorf("platform: task %d recovered in shards %d and %d", tid, prev, k)
			}
			ss.taskHome[tid] = k
		}
		nw, nt := sh.state.NextIDs()
		if nw > ss.nextWorkerID {
			ss.nextWorkerID = nw
		}
		if nt > ss.nextTaskID {
			ss.nextTaskID = nt
		}
	}
	// Sorted worker order keeps repair journaling deterministic.
	wids := make([]int, 0, len(seen))
	for wid := range seen {
		wids = append(wids, wid)
	}
	slices.Sort(wids)
	for _, wid := range wids {
		got := seen[wid]
		want := ss.router.WorkerShards(specialties[wid])
		if slices.Equal(got, want) {
			ss.workerHome[wid] = want
			continue
		}
		if !subsetIntSlice(got, want) {
			return fmt.Errorf("platform: worker %d resident in shards %v, router places it in %v — shard count mismatch?",
				wid, got, want)
		}
		// Strict subset: a crash between fan-out appends left either a torn
		// join (prefix of the target shards written) or a torn leave (prefix
		// removed).  Both converge to ABSENT — removing the residual copies
		// completes the join's rollback or the leave's remainder.  The
		// removals are journaled, so the repair is durable.
		for _, k := range got {
			if _, err := ss.shards[k].submit(NewWorkerLeft(wid)); err != nil {
				return fmt.Errorf("platform: repairing partial worker %d on shard %d: %w", wid, k, err)
			}
		}
		ss.repairedWorkers++
	}
	return nil
}

// RepairedWorkers reports how many workers reindex found resident in a
// strict subset of their router shards — a crash between the fan-out
// appends of a join or leave — and converged to absent during recovery.
func (ss *Service) RepairedWorkers() int { return ss.repairedWorkers }

// subsetIntSlice reports whether sorted a is a subset of sorted b.
func subsetIntSlice(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// NumShards returns the shard count.
func (ss *Service) NumShards() int { return len(ss.shards) }

// ShardState exposes shard k's state (tests, stats).
func (ss *Service) ShardState(k int) *State { return ss.shards[k].state }

// State exposes shard 0's state: the whole market of a one-shard service.
func (ss *Service) State() *State { return ss.shards[0].state }

// SetCheckpointer attaches a checkpoint manager to shard 0 — the whole
// market of a one-shard service: every committed round then notifies it
// (snapshot-on-round policy), and the HTTP API exposes POST /v1/checkpoint
// and GET /v1/snapshot.  Call before serving.
func (ss *Service) SetCheckpointer(cm *CheckpointManager) { ss.shards[0].checkpoint = cm }

// Counts returns global live-entity counts (a spanning worker counts once).
func (ss *Service) Counts() (workers, tasks int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.workerHome), len(ss.taskHome)
}

// Rounds returns the service's committed round count: the minimum over
// shards, since a failed commit can transiently leave later shards one
// marker behind.
func (ss *Service) Rounds() int {
	min := -1
	for _, sh := range ss.shards {
		if r := sh.state.Rounds(); min < 0 || r < min {
			min = r
		}
	}
	return min
}

// CheckpointNow implements Backend: an immediate snapshot + journal
// compaction on every shard with a checkpoint manager; ok is false when no
// shard has one.  A one-shard service reports its CheckpointResult, a
// sharded one the per-shard list.
func (ss *Service) CheckpointNow() (any, bool, error) {
	var results []CheckpointResult
	for k, sh := range ss.shards {
		if sh.checkpoint == nil {
			continue
		}
		res, err := sh.checkpoint.Checkpoint()
		if err != nil {
			return nil, true, fmt.Errorf("platform: checkpointing shard %d: %w", k, err)
		}
		results = append(results, res)
	}
	switch {
	case len(results) == 0:
		return nil, false, nil
	case len(ss.shards) == 1:
		return results[0], true, nil
	}
	return results, true, nil
}

// LatestSnapshot implements SnapshotProvider: an open reader over the
// newest snapshot file that passes full CRC verification, plus its info.
// Corrupt generations are skipped exactly like RecoverDir's fallback
// chain.  Only a one-shard service with a checkpoint manager serves one —
// a primary that never snapshots also never retires segments, so its
// followers never need a snapshot bootstrap, and a sharded market
// replicates per shard directory.
func (ss *Service) LatestSnapshot() (io.ReadCloser, SnapshotInfo, error) {
	cm := ss.shards[0].checkpoint
	if len(ss.shards) > 1 || cm == nil {
		return nil, SnapshotInfo{}, ErrNoSnapshot
	}
	return latestSnapshotIn(cm.SnapshotDir())
}

// JournalEventsSince serves the primary side of follower replication:
// every journaled event with sequence ≥ from, plus the state's current
// last-committed sequence so the follower can report its lag.  Only a
// one-shard service over a segmented journal streams.
func (ss *Service) JournalEventsSince(from uint64) ([]Event, uint64, error) {
	sl, ok := ss.shards[0].journal.(*SegmentedLog)
	if len(ss.shards) > 1 || !ok {
		return nil, 0, ErrStreamUnsupported
	}
	events, err := sl.EventsSince(from)
	return events, ss.shards[0].state.Seq(), err
}

// Epoch implements Fenceable: the max over the shard states (a recovered
// directory tree may carry a bump in any shard's journal).  The epoch is a
// journaled fact, not process memory.
func (ss *Service) Epoch() uint64 {
	var top uint64
	for _, rt := range ss.shards {
		if e := rt.state.Epoch(); e > top {
			top = e
		}
	}
	return top
}

// ObserveEpoch records a replication epoch seen on the wire.  Observing
// an epoch above the service's own permanently fences it (until the state
// itself reaches that epoch — which only replication can make happen,
// never this service's own writes).
func (ss *Service) ObserveEpoch(epoch uint64) {
	for {
		cur := ss.fencedBy.Load()
		if epoch <= cur || ss.fencedBy.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// FenceStatus reports whether the service is fenced and the highest
// foreign epoch it has observed.
func (ss *Service) FenceStatus() (fenced bool, observed uint64) {
	observed = ss.fencedBy.Load()
	return observed > ss.Epoch(), observed
}

// checkFence refuses writes on a fenced service.
func (ss *Service) checkFence() error {
	if fenced, observed := ss.FenceStatus(); fenced {
		return fmt.Errorf("%w: observed epoch %d above local %d", ErrFenced, observed, ss.Epoch())
	}
	return nil
}

// NotePromotion records the journal sequence of the epoch bump that made
// this service the primary (surfaced as promoted_at_seq in healthz).
func (ss *Service) NotePromotion(seq uint64) { ss.promotedAt.Store(seq) }

// PromotedAtSeq returns the promotion provenance recorded by
// NotePromotion (0 when this service started as a primary).
func (ss *Service) PromotedAtSeq() uint64 { return ss.promotedAt.Load() }

// Submit validates, routes and applies one event.  Worker events fan out to
// every shard the worker's specialties map to; task events go to exactly
// one shard; epoch bumps go to every shard.  The event is validated up
// front against the shared category universe, so a multi-shard apply can
// only fail on journal I/O — and a partial failure is compensated by
// undoing the shards that had already applied, restoring the
// all-or-nothing Submit contract.  Round markers are journaled by
// CloseRound itself and are rejected here.
func (ss *Service) Submit(e Event) (Event, error) {
	if err := ss.checkFence(); err != nil {
		return Event{}, err
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch e.Kind {
	case EventWorkerJoined:
		return ss.submitWorkerJoined(e)
	case EventWorkerLeft:
		return ss.submitWorkerLeft(e)
	case EventTaskPosted:
		return ss.submitTaskPosted(e)
	case EventTaskClosed:
		return ss.submitTaskClosed(e)
	case EventRoundClosed:
		return Event{}, fmt.Errorf("platform: round markers are journaled per shard by CloseRound")
	case EventEpochBumped:
		return ss.submitEpochBumped(e)
	default:
		return Event{}, fmt.Errorf("platform: unknown event kind %q", e.Kind)
	}
}

func (ss *Service) submitWorkerJoined(e Event) (Event, error) {
	w := *e.Worker
	if err := validateWorkerProfile(&w, ss.shards[0].state.NumCategories()); err != nil {
		return Event{}, err
	}
	prevNext := ss.nextWorkerID
	if w.ID >= ss.nextWorkerID {
		ss.nextWorkerID = w.ID + 1
	} else if w.ID == 0 {
		// nextWorkerID starts at 1, so a fresh (ID-less) event always lands
		// here and fresh IDs are never 0 — which keeps compensation
		// unambiguous (re-joining ID 0 would be re-assigned a fresh ID).
		w.ID = ss.nextWorkerID
		ss.nextWorkerID++
	}
	if _, live := ss.workerHome[w.ID]; live {
		ss.nextWorkerID = prevNext
		return Event{}, fmt.Errorf("platform: worker %d already live", w.ID)
	}
	targets := ss.router.WorkerShards(w.Specialties)
	var applied Event
	for i, k := range targets {
		ev, err := ss.shards[k].submit(NewWorkerJoined(w))
		if err != nil {
			for _, kk := range targets[:i] {
				if _, cerr := ss.shards[kk].submit(NewWorkerLeft(w.ID)); cerr != nil {
					return Event{}, fmt.Errorf("platform: worker join failed on shard %d (%v) and compensation failed on shard %d: %w — shards inconsistent",
						k, err, kk, cerr)
				}
			}
			// The ID stays spent: a round may already have snapshotted
			// the compensated join, and a reissued ID would merge that
			// stale profile's pairs with its new owner's.
			return Event{}, err
		}
		if i == 0 {
			applied = ev
		}
	}
	ss.workerHome[w.ID] = targets
	return applied, nil
}

func (ss *Service) submitWorkerLeft(e Event) (Event, error) {
	id := *e.WorkerID
	targets, live := ss.workerHome[id]
	if !live {
		return Event{}, fmt.Errorf("platform: worker %d not live", id)
	}
	var applied Event
	for i, k := range targets {
		ev, err := ss.shards[k].submit(NewWorkerLeft(id))
		if err != nil {
			// The failed shard rolled its removal back, so it still holds
			// the profile the compensating re-joins need.
			w, _ := ss.shards[k].state.Worker(id)
			for _, kk := range targets[:i] {
				if _, cerr := ss.shards[kk].submit(NewWorkerJoined(w)); cerr != nil {
					return Event{}, fmt.Errorf("platform: worker leave failed on shard %d (%v) and compensation failed on shard %d: %w — shards inconsistent",
						k, err, kk, cerr)
				}
			}
			return Event{}, err
		}
		if i == 0 {
			applied = ev
		}
	}
	delete(ss.workerHome, id)
	return applied, nil
}

func (ss *Service) submitTaskPosted(e Event) (Event, error) {
	t := *e.Task
	if err := validateTaskShape(&t, ss.shards[0].state.NumCategories()); err != nil {
		return Event{}, err
	}
	prevNext := ss.nextTaskID
	if t.ID >= ss.nextTaskID {
		ss.nextTaskID = t.ID + 1
	} else if t.ID == 0 {
		t.ID = ss.nextTaskID
		ss.nextTaskID++
	}
	if _, open := ss.taskHome[t.ID]; open {
		ss.nextTaskID = prevNext
		return Event{}, fmt.Errorf("platform: task %d already open", t.ID)
	}
	k := ss.router.TaskShard(t.Category)
	ev, err := ss.shards[k].submit(NewTaskPosted(t))
	if err != nil {
		ss.nextTaskID = prevNext
		return Event{}, err
	}
	ss.taskHome[t.ID] = k
	return ev, nil
}

func (ss *Service) submitTaskClosed(e Event) (Event, error) {
	id := *e.TaskID
	k, open := ss.taskHome[id]
	if !open {
		return Event{}, fmt.Errorf("platform: task %d not open", id)
	}
	ev, err := ss.shards[k].submit(NewTaskClosed(id))
	if err != nil {
		return Event{}, err
	}
	delete(ss.taskHome, id)
	return ev, nil
}

// submitEpochBumped journals an epoch bump on every shard and returns shard
// 0's applied event.  The bump must rise above every shard's epoch, so a
// shard can refuse it only on journal I/O; a partial bump is not unwound
// (an epoch only rises), and Epoch() — the max over shards — already
// reports it, so a retry bumps past it everywhere.
func (ss *Service) submitEpochBumped(e Event) (Event, error) {
	if top := ss.Epoch(); *e.Epoch <= top {
		return Event{}, fmt.Errorf("platform: epoch %d not above current %d", *e.Epoch, top)
	}
	var applied Event
	for k, sh := range ss.shards {
		ev, err := sh.submit(e)
		if err != nil {
			return Event{}, fmt.Errorf("platform: epoch bump on shard %d: %w", k, err)
		}
		if k == 0 {
			applied = ev
		}
	}
	return applied, nil
}

// SubmitBatch applies a mixed batch of ingestion events all-or-nothing
// across the shards.  Planning happens first, under the service mutex,
// advancing the ID counters and routing tables as it goes (rolled back if
// the batch is rejected), so an intra-batch sequence (join then leave,
// close then re-post) routes exactly as sequential Submits would and any
// validation or routing error rejects the batch before a single shard is
// touched.  Each shard then receives
// its slice of the batch as one atomic apply+append; if shard k fails,
// the shards applied before it are compensated with their inverse events
// in reverse order, restoring the pre-batch state everywhere.  A batch
// that touches one shard needs no compensation and builds no inverses.
// Round markers are refused — rounds close through CloseRound, which owns
// the marker's journaling.
func (ss *Service) SubmitBatch(events []Event) ([]Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	if err := ss.checkFence(); err != nil {
		return nil, err
	}
	ncat := ss.shards[0].state.NumCategories()
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return nil, fmt.Errorf("platform: batch event %d: %w", i, err)
		}
		if events[i].Kind == EventRoundClosed {
			return nil, fmt.Errorf("platform: batch event %d: round markers cannot be batch-submitted", i)
		}
	}

	ss.mu.Lock()
	defer ss.mu.Unlock()

	// Planning assigns IDs from local counters and edits the routing
	// tables in place, logging each edit; unless every shard commits, the
	// deferred rollback replays the log backwards.
	type routeEdit struct {
		worker  bool
		id      int
		targets []int // the worker's previous residency; nil = was not live
		shard   int   // the task's previous shard; -1 = was not open
	}
	edits := make([]routeEdit, 0, len(events))
	nextWorkerID, nextTaskID := ss.nextWorkerID, ss.nextTaskID
	committed := false
	defer func() {
		if committed {
			return
		}
		for j := len(edits) - 1; j >= 0; j-- {
			switch e := edits[j]; {
			case e.worker && e.targets == nil:
				delete(ss.workerHome, e.id)
			case e.worker:
				ss.workerHome[e.id] = e.targets
			case e.shard < 0:
				delete(ss.taskHome, e.id)
			default:
				ss.taskHome[e.id] = e.shard
			}
		}
	}()
	// refs[i] locates event i's result (its first target's copy).  A
	// one-shard market places every event once and in order, so it needs
	// no refs: the shard's applied batch is the result.
	perShard := make([][]Event, len(ss.shards))
	type eventRef struct{ shard, idx int }
	var refs []eventRef
	if len(ss.shards) > 1 {
		refs = make([]eventRef, len(events))
	}
	place := func(i, k int, ev Event, first bool) {
		if perShard[k] == nil {
			perShard[k] = make([]Event, 0, len(events)) // no shard gets more
		}
		perShard[k] = append(perShard[k], ev)
		if first && refs != nil {
			refs[i] = eventRef{k, len(perShard[k]) - 1}
		}
	}

	for i := range events {
		switch events[i].Kind {
		case EventWorkerJoined:
			w := *events[i].Worker
			if err := validateWorkerProfile(&w, ncat); err != nil {
				return nil, fmt.Errorf("platform: batch event %d: %w", i, err)
			}
			if w.ID >= nextWorkerID {
				nextWorkerID = w.ID + 1
			} else if w.ID == 0 {
				w.ID = nextWorkerID
				nextWorkerID++
			}
			if _, live := ss.workerHome[w.ID]; live {
				return nil, fmt.Errorf("platform: batch event %d: worker %d already live", i, w.ID)
			}
			targets := ss.router.WorkerShards(w.Specialties)
			for j, k := range targets {
				place(i, k, NewWorkerJoined(w), j == 0)
			}
			ss.workerHome[w.ID] = targets
			edits = append(edits, routeEdit{worker: true, id: w.ID})
		case EventWorkerLeft:
			id := *events[i].WorkerID
			targets, live := ss.workerHome[id]
			if !live {
				return nil, fmt.Errorf("platform: batch event %d: worker %d not live", i, id)
			}
			for j, k := range targets {
				place(i, k, events[i], j == 0)
			}
			delete(ss.workerHome, id)
			edits = append(edits, routeEdit{worker: true, id: id, targets: targets})
		case EventTaskPosted:
			t := *events[i].Task
			if err := validateTaskShape(&t, ncat); err != nil {
				return nil, fmt.Errorf("platform: batch event %d: %w", i, err)
			}
			if t.ID >= nextTaskID {
				nextTaskID = t.ID + 1
			} else if t.ID == 0 {
				t.ID = nextTaskID
				nextTaskID++
			}
			if _, open := ss.taskHome[t.ID]; open {
				return nil, fmt.Errorf("platform: batch event %d: task %d already open", i, t.ID)
			}
			k := ss.router.TaskShard(t.Category)
			place(i, k, NewTaskPosted(t), true)
			ss.taskHome[t.ID] = k
			edits = append(edits, routeEdit{id: t.ID, shard: -1})
		case EventTaskClosed:
			id := *events[i].TaskID
			k, open := ss.taskHome[id]
			if !open {
				return nil, fmt.Errorf("platform: batch event %d: task %d not open", i, id)
			}
			place(i, k, events[i], true)
			delete(ss.taskHome, id)
			edits = append(edits, routeEdit{id: id, shard: k})
		default:
			return nil, fmt.Errorf("platform: batch event %d: unknown event kind %q", i, events[i].Kind)
		}
	}

	// Compensation lists, needed only when a later shard can fail after an
	// earlier one applied.
	inverse := make([][]Event, len(ss.shards)) // inverse[k][j] undoes perShard[k][j]
	touched, only := 0, 0
	for k := range perShard {
		if len(perShard[k]) > 0 {
			touched, only = touched+1, k
		}
	}
	if touched > 1 {
		for k, evs := range perShard {
			var err error
			if inverse[k], err = ss.shards[k].inverses(evs); err != nil {
				return nil, err
			}
		}
	}

	// Apply phase: one atomic batch per shard, ascending.  On failure the
	// already-applied shards are unwound by replaying their inverse lists
	// backwards — undo-last-first restores the exact pre-batch state even
	// when the batch touched an entity more than once.  The batch's IDs are
	// spent from here on, even if it fails (see submitWorkerJoined).
	ss.nextWorkerID, ss.nextTaskID = nextWorkerID, nextTaskID
	applied := make([][]Event, len(ss.shards))
	for k := range ss.shards {
		if len(perShard[k]) == 0 {
			continue
		}
		evs, err := ss.shards[k].submitBatch(perShard[k])
		if err != nil {
			for kk := k - 1; kk >= 0; kk-- {
				for j := len(inverse[kk]) - 1; j >= 0; j-- {
					if _, cerr := ss.shards[kk].submit(inverse[kk][j]); cerr != nil {
						return nil, fmt.Errorf("platform: batch failed on shard %d (%v) and compensation failed on shard %d: %w — shards inconsistent",
							k, err, kk, cerr)
					}
				}
			}
			return nil, fmt.Errorf("platform: batch failed on shard %d, batch rolled back: %w", k, err)
		}
		applied[k] = evs
	}

	committed = true
	if touched == 1 {
		return applied[only], nil
	}
	out := make([]Event, len(events))
	for i, r := range refs {
		out[i] = applied[r.shard][r.idx]
	}
	return out, nil
}

// CloseRound is CloseRoundCtx with a background context.
func (ss *Service) CloseRound() (*RoundResult, error) {
	return ss.CloseRoundCtx(context.Background())
}

// CloseRoundCtx assigns all open tasks to the live workforce, journals the
// round marker on every shard, and returns the result in platform
// identities.  Closed tasks are *not* removed automatically: platforms
// differ on whether a task keeps collecting answers across rounds, so
// removal is the caller's policy (see Server's drain parameter).
//
// The round fans snapshot→rebuild→solve per shard over a bounded worker
// pool, reconciles spanning workers sequentially, then commits each
// shard's share — pairs whose worker or task disappeared during the solve
// are dropped (counted in StalePairs), the round marker is journaled and
// the checkpoint manager notified — and aggregates.
//
// Cancellation is cooperative: deadline-aware solvers (core.ContextSolver,
// and notably core.Degrader) observe ctx and abort or degrade; others run
// to completion.  A ctx that dies before the round commits aborts the
// round without journaling any marker.  A solve that fails for any *other*
// reason — every degrader stage exhausted, or a panicking solver — still
// closes the round: the shard contributes nothing, SolveError records why,
// and the serving loop lives on.
//
// If a marker commit fails mid-way the shards before it keep their marker:
// round counters can transiently diverge by one, which is why Rounds()
// reports the minimum.  Entity state is untouched by markers, so a retried
// CloseRound re-serves everyone.
func (ss *Service) CloseRoundCtx(ctx context.Context) (*RoundResult, error) {
	// A fenced service must not journal a round marker: the new primary's
	// history would never contain it.
	if err := ss.checkFence(); err != nil {
		return nil, err
	}
	ss.roundMu.Lock()
	defer ss.roundMu.Unlock()

	// Phase 1: per-shard snapshot + solve on the worker pool.
	outs := make([]*shardSolve, len(ss.shards))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < ss.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				outs[k] = ss.shards[k].solveRound(ctx, ss.params)
			}
		}()
	}
	for k := range ss.shards {
		idx <- k
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller is gone; no marker for a round that served nobody.
		return nil, err
	}

	// Phase 2: sequential cross-shard reconciliation of spanning workers.
	dropped, refilled := reconcileShards(outs)
	// A higher epoch may have been observed while the shards solved; a
	// fenced service journals no marker and hands out no assignments.
	if err := ss.checkFence(); err != nil {
		return nil, err
	}
	res := &RoundResult{
		Metrics:           ss.aggregateMetrics(outs),
		ReconcileDropped:  dropped,
		ReconcileRefilled: refilled,
		Shards:            make([]ShardRound, len(ss.shards)),
	}

	// Phase 3: per-shard commit.
	var solveErrs []string
	for k, out := range outs {
		sh := ss.shards[k]
		if out.solveErr == nil {
			var stale int
			out.pairs, stale = sh.state.filterLivePairs(out.pairs)
			out.info.StalePairs = stale
			res.StalePairs += stale
		} else {
			solveErrs = append(solveErrs, fmt.Sprintf("shard %d: %v", k, out.solveErr))
			out.info.SolveError = out.solveErr.Error()
		}
		marker, err := sh.submit(NewRoundClosed(sh.state.Rounds()))
		if err != nil {
			return nil, fmt.Errorf("platform: committing round marker on shard %d: %w", k, err)
		}
		out.info.Seq = marker.Seq
		if sh.checkpoint != nil {
			// The round is committed; checkpointing is recovery-time
			// optimization and must never undo that, so its errors are
			// reported on the result instead of failing the close.
			took, err := sh.checkpoint.RoundClosed()
			out.info.Checkpointed = took
			if err != nil {
				out.info.CheckpointError = err.Error()
			}
		}
		out.info.Pairs = len(out.pairs)
		if res.Pairs == nil {
			res.Pairs = out.pairs // owned by this round: no copy for a one-shard market
		} else {
			res.Pairs = append(res.Pairs, out.pairs...)
		}
		res.Shards[k] = out.info
	}
	if len(solveErrs) > 0 {
		res.SolveError = fmt.Sprintf("%d shard(s) failed: %s", len(solveErrs), strings.Join(solveErrs, "; "))
	}
	res.Round = ss.Rounds()
	if len(res.Shards) == 1 {
		// A single market reports its provenance on the result itself.
		sr := res.Shards[0]
		res.Seq, res.SolveError = sr.Seq, sr.SolveError
		res.ServedBy, res.DegradedFrom, res.SolveTimedOut = sr.ServedBy, sr.DegradedFrom, sr.SolveTimedOut
		res.WarmStarted, res.DirtyFraction, res.FullSolveFallback = sr.WarmStarted, sr.DirtyFraction, sr.FullSolveFallback
		res.Checkpointed, res.CheckpointError = sr.Checkpointed, sr.CheckpointError
		res.Shards = nil
	}
	return res, nil
}

// aggregateMetrics computes round metrics from the reconciled pairs of
// every shard, mirroring core.Problem.Evaluate's formulas over the union
// market: slot coverage over the sum of open slots, Jain fairness and mean
// benefit over every live worker (spanning workers counted once, idle ones
// as zero).  Workers are indexed first-seen in (shard, position) order, so
// every float sum runs in a fixed order and identical rounds give
// bit-identical metrics; at one shard the result equals Evaluate's.
// Elapsed is the slowest shard's solve.
func (ss *Service) aggregateMetrics(outs []*shardSolve) core.Metrics {
	m := core.Metrics{Algorithm: ss.shards[0].solver.Name()}
	if len(ss.shards) > 1 {
		m.Algorithm = fmt.Sprintf("sharded/%d(%s)", len(ss.shards), m.Algorithm)
	}
	resident := 0 // worker residencies: an upper bound on live workers, exact at one shard
	for _, out := range outs {
		resident += len(out.workerIDs)
	}
	index := make(map[int]int, resident) // worker ID → position in benefits
	benefits := make([]float64, 0, resident)
	slots := 0
	for _, out := range outs {
		slots += out.in.TotalSlots()
		for _, wid := range out.workerIDs {
			if _, dup := index[wid]; !dup {
				index[wid] = len(benefits)
				benefits = append(benefits, 0)
			}
		}
		m.Elapsed = max(m.Elapsed, out.elapsed)
	}
	for _, out := range outs {
		for _, pr := range out.pairs {
			m.Pairs++
			m.TotalMutual += pr.Mutual
			m.TotalQuality += pr.Quality
			m.TotalWorker += pr.Utility
			benefits[index[pr.WorkerID]] += pr.Utility
		}
	}
	if slots > 0 {
		m.SlotCoverage = float64(m.Pairs) / float64(slots)
	}
	for _, b := range benefits {
		if b > 0 {
			m.ActiveWorkers++
		}
	}
	m.WorkerJain = stats.JainIndex(benefits)
	m.MeanWorkerBenefit = stats.Mean(benefits)
	return m
}

// shardSolve is one shard's contribution to a round in flight: the
// immutable snapshot it solved, the problem (retained for refill
// candidates), and the optimistic pairs before reconciliation.
type shardSolve struct {
	in                 *market.Instance
	workerIDs, taskIDs []int
	p                  *core.Problem
	sel                []int // selected edge indices into p.Edges, parallel to pairs
	pairs              []AssignmentPair
	elapsed            time.Duration // solver wall-clock
	info               ShardRound
	solveErr           error
}

// solveRound snapshots and solves one shard.  It runs on the round worker
// pool: everything it touches — the shard's state (snapshot under its own
// lock), rng, prev arena — is owned by this shard, so shards never contend.
// A delta-aware solver additionally gets the churn since the previous
// snapshot, so warm rounds repair the carried matching instead of
// re-solving.
func (sh *shardRuntime) solveRound(ctx context.Context, params benefit.Params) *shardSolve {
	out := &shardSolve{}
	out.info.Shard = sh.id
	var delta *core.Delta
	if _, ok := sh.solver.(core.DeltaSolver); ok {
		out.in, out.workerIDs, out.taskIDs, delta = sh.state.SnapshotDelta()
	} else {
		out.in, out.workerIDs, out.taskIDs = sh.state.Snapshot()
	}
	out.info.Workers = len(out.workerIDs)
	out.info.Tasks = len(out.taskIDs)
	if out.in.NumWorkers() == 0 || out.in.NumTasks() == 0 {
		return out
	}
	out.solveErr = sh.solveSnapshot(ctx, out, delta, params)
	return out
}

// solveSnapshot runs problem construction and the solve on the immutable
// snapshot, rebuilding into the previous round's arenas (prev is owned by
// roundMu and nothing outside the round retains views into it — pairs are
// copied out), and fills out.sel, out.pairs and the provenance fields.
// The panic fence covers construction as well as the solve (core.RunCtx
// fences the solver itself), so malformed input or an arena-reuse bug in
// the rebuild path costs one round, not the process.
func (sh *shardRuntime) solveSnapshot(ctx context.Context, out *shardSolve, delta *core.Delta, params benefit.Params) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out.sel, out.pairs = nil, nil
			err = fmt.Errorf("platform: shard %d round solve panicked: %v", sh.id, rec)
		}
	}()
	p, err := core.RebuildProblem(sh.prev, out.in, params)
	if err != nil {
		return err
	}
	sh.prev = p
	out.p = p
	sel, m, err := core.RunDeltaCtx(ctx, p, sh.solver, delta, sh.rng.Split())
	if rep, ok := sh.solver.(core.SolveReporter); ok {
		last := rep.LastReport()
		out.info.ServedBy = last.ServedBy
		out.info.DegradedFrom = last.DegradedFrom
		out.info.SolveTimedOut = last.SolveTimedOut
		out.info.WarmStarted = last.WarmStarted
		out.info.DirtyFraction = last.DirtyFraction
		out.info.FullSolveFallback = last.FullSolveFallback
	}
	if err != nil {
		return err
	}
	out.sel, out.elapsed = sel, m.Elapsed
	out.pairs = make([]AssignmentPair, len(sel))
	for i, ei := range sel {
		e := &p.Edges[ei]
		out.pairs[i] = AssignmentPair{
			WorkerID: out.workerIDs[e.W],
			TaskID:   out.taskIDs[e.T],
			Quality:  e.Q,
			Utility:  e.B,
			Mutual:   e.M,
		}
	}
	return nil
}
