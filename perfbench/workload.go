package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/market"
	"repro/internal/platform"
)

// workload is one traffic mix.  Every workload is a closed loop over one
// connection: each request is sent when the previous one is answered.
type workload struct {
	name       string
	config     func(workers, tasks int) market.Config
	categories int
	workers    int // initial market, loaded through POST /v1/batch
	tasks      int
	shards     int
	solver     string

	// Fraction of workers and of tasks replaced per step.
	churn float64
}

// Run-shape constants shared by every workload.
const (
	// minRounds is how many rounds a measured phase closes at least: a
	// round p90 needs 100 samples, and mutual_per_round of a closed loop
	// averages exactly the first minRounds rounds so it is identical for
	// every run of one seed.
	minRounds = 100
	// maxStepRate caps a closed loop at 20 steps/s.  Each step spends two
	// low-priority tokens (batch + round) and admission grants 50/s, so a
	// faster server is never shed for being fast.
	maxStepRate = 20
	// setupChunk is how many events one initial-load batch carries.
	setupChunk = 200
	// stepSingles is how many of each side's joins and of its leaves a
	// step sends as single events rather than in its batch.  The first
	// single events after a batch are the slowest, so a few per step would
	// put the median among them; sixteen a step keep it steady.
	stepSingles = 4
	// overrun is how long a measured phase may run past its schedule
	// before the remaining requests count as failed.
	overrun = 60 * time.Second
)

func freelance(w, t int) market.Config { return market.FreelanceTraceConfig(w, t) }

// shardedRound is the sharded-round bench suite's market: 64 uniform
// categories, 1-2 specialties per worker, so about half the workers span
// shards.
func shardedRound(w, t int) market.Config {
	return market.Config{
		Name:           "sharded-bench",
		NumWorkers:     w,
		NumTasks:       t,
		NumCategories:  64,
		MinSpecialties: 1,
		MaxSpecialties: 2,
	}
}

var workloads = []workload{
	// The greedy solve is most of each round: solver changes show in the
	// round figures; journal and server changes show in the single-event
	// and batch latencies and must not move the rounds.
	{
		name:       "round",
		config:     freelance,
		categories: 30,
		workers:    1600,
		tasks:      1200,
		shards:     1,
		solver:     "greedy",
		churn:      0.02,
	},
	// The delta solver, the shard fan-out and the cross-shard reconcile do
	// the work, greedy sorting none, over four per-shard journals.
	{
		name:       "sharded-churn",
		config:     shardedRound,
		categories: 64,
		workers:    1600,
		tasks:      1200,
		shards:     4,
		solver:     "incremental",
		churn:      0.01,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Entity sides.
const (
	workerSide = 0
	taskSide   = 1
)

var sideName = [2]string{"workers", "tasks"}

// pool hands out generated profiles in a fixed order.  Key k of a side is
// the k-th entity of that side to join: keys 0..n-1 are the initial
// market, later keys come from further seeded markets of the same
// configuration.  The profile for a key never depends on how many keys a
// run draws, so one seed gives the same inputs at any run length.
type pool struct {
	wl    workload
	seed  uint64
	chunk int
	json  [2][][]byte // pre-encoded profiles (ID 0: the server assigns it)
	limit [2][]int    // worker capacity / task replication
	used  [2]int      // keys handed out
}

func newPool(wl workload, seed uint64) (*pool, error) {
	p := &pool{wl: wl, seed: seed}
	if err := p.add(wl.config(wl.workers, wl.tasks)); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pool) add(cfg market.Config) error {
	in, err := market.Generate(cfg, p.seed*1_000_003+uint64(p.chunk))
	if err != nil {
		return fmt.Errorf("generating market chunk %d: %w", p.chunk, err)
	}
	p.chunk++
	for _, w := range in.Workers {
		w.ID = 0
		b, err := json.Marshal(w)
		if err != nil {
			return err
		}
		p.json[workerSide] = append(p.json[workerSide], b)
		p.limit[workerSide] = append(p.limit[workerSide], w.Capacity)
	}
	for _, t := range in.Tasks {
		t.ID = 0
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		p.json[taskSide] = append(p.json[taskSide], b)
		p.limit[taskSide] = append(p.limit[taskSide], t.Replication)
	}
	return nil
}

// next returns the next unused key of a side, generating profiles as
// needed.
func (p *pool) next(side int) (int, error) {
	for p.used[side] >= len(p.json[side]) {
		if err := p.add(p.wl.config(p.wl.workers/4, p.wl.tasks/4)); err != nil {
			return 0, err
		}
	}
	k := p.used[side]
	p.used[side]++
	return k, nil
}

type opKind uint8

const (
	opJoin  opKind = iota // POST /v1/workers or /v1/tasks
	opLeave               // DELETE /v1/workers/{id} or /v1/tasks/{id}
	opBatch               // POST /v1/batch
	opRound               // POST /v1/rounds
)

// op is one planned request in entity keys; encode turns it into HTTP
// once the server's first IDs are known.
type op struct {
	kind opKind
	side int // single-event ops
	key  int
	// batch: events in send order
	batch []batchEvent
}

type batchEvent struct {
	leave bool
	side  int
	key   int
}

// plan is a run's whole input: the initial-load batches and the ops of
// the measured phase.
type plan struct {
	pool  *pool
	setup [][]byte // pre-encoded initial-load batch bodies
	ops   []*op

	rng  *rand.Rand
	live [2][]int // keys live after the ops planned so far
}

// join plans a new entity of side and returns its key.
func (pl *plan) join(side int) (int, error) {
	k, err := pl.pool.next(side)
	if err == nil {
		pl.live[side] = append(pl.live[side], k)
	}
	return k, err
}

// leave picks a uniformly random live entity of side to leave.
func (pl *plan) leave(side int) (int, error) {
	live := pl.live[side]
	if len(live) == 0 {
		return 0, fmt.Errorf("no live %s left to leave", sideName[side])
	}
	i := pl.rng.IntN(len(live))
	k := live[i]
	live[i] = live[len(live)-1]
	pl.live[side] = live[:len(live)-1]
	return k, nil
}

// newPlan builds every input of a run from the seed, with steps enough
// for seconds at the step-rate cap.
func newPlan(wl workload, seed uint64, seconds int) (*plan, error) {
	p, err := newPool(wl, seed)
	if err != nil {
		return nil, err
	}
	pl := &plan{pool: p, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	var setup []batchEvent
	for side, n := range [2]int{wl.workers, wl.tasks} {
		for i := 0; i < n; i++ {
			k, err := pl.join(side)
			if err != nil {
				return nil, err
			}
			setup = append(setup, batchEvent{side: side, key: k})
		}
	}
	for len(setup) > 0 {
		n := min(setupChunk, len(setup))
		// Joins carry no IDs, so the setup bodies are encoded up front.
		body, err := encodeBatch(setup[:n], [2]int{}, p)
		if err != nil {
			return nil, err
		}
		pl.setup = append(pl.setup, body)
		setup = setup[n:]
	}
	return pl, pl.closedSteps(wl, seconds)
}

// closedSteps plans the closed loop: each step is a churn batch, then
// stepSingles rounds of a single-event join, post, leave and close, then a
// round.
func (pl *plan) closedSteps(wl workload, seconds int) error {
	steps := max(seconds*maxStepRate, minRounds) + 1
	churn := [2]int{
		int(math.Round(wl.churn * float64(wl.workers))),
		int(math.Round(wl.churn * float64(wl.tasks))),
	}
	for s := 0; s < steps; s++ {
		b := &op{kind: opBatch}
		for side := range churn {
			for i := 0; i < churn[side]-stepSingles; i++ {
				k, err := pl.leave(side)
				if err != nil {
					return err
				}
				b.batch = append(b.batch, batchEvent{leave: true, side: side, key: k})
			}
		}
		for side := range churn {
			for i := 0; i < churn[side]-stepSingles; i++ {
				k, err := pl.join(side)
				if err != nil {
					return err
				}
				b.batch = append(b.batch, batchEvent{side: side, key: k})
			}
		}
		pl.ops = append(pl.ops, b)
		for i := 0; i < stepSingles; i++ {
			for side := range churn {
				k, err := pl.join(side)
				if err != nil {
					return err
				}
				pl.ops = append(pl.ops, &op{kind: opJoin, side: side, key: k})
			}
			for side := range churn {
				k, err := pl.leave(side)
				if err != nil {
					return err
				}
				pl.ops = append(pl.ops, &op{kind: opLeave, side: side, key: k})
			}
		}
		pl.ops = append(pl.ops, &op{kind: opRound})
	}
	return nil
}

// request is one encoded op and, once sent, its outcome.  Times are
// relative to the start of the measured phase.
type request struct {
	op     *op
	method string
	path   string
	raw    []byte // the whole HTTP request, rendered before the clock starts

	due, sent, done time.Duration
	status          int
	resp            []byte // kept for joins, batches and rounds
	err             error
}

// encode turns the measured phase's ops into requests, given the first
// worker and task IDs the server assigned (IDs are dense and assigned in
// join order, and every join of a run travels one connection in plan
// order).
func (pl *plan) encode(base [2]int) ([]*request, error) {
	reqs := make([]*request, len(pl.ops))
	for i, o := range pl.ops {
		r := &request{op: o}
		var body []byte
		switch o.kind {
		case opJoin:
			r.method, r.path, body = "POST", "/v1/"+sideName[o.side], pl.pool.json[o.side][o.key]
		case opLeave:
			r.method, r.path = "DELETE", "/v1/"+sideName[o.side]+"/"+strconv.Itoa(base[o.side]+o.key)
		case opBatch:
			var err error
			if body, err = encodeBatch(o.batch, base, pl.pool); err != nil {
				return nil, err
			}
			r.method, r.path = "POST", "/v1/batch"
		case opRound:
			r.method, r.path = "POST", "/v1/rounds"
		}
		r.raw = rawRequest(r.method, r.path, body)
		reqs[i] = r
	}
	return reqs, nil
}

var (
	joinPrefix  = [2]string{`{"kind":"` + string(platform.EventWorkerJoined) + `","worker":`, `{"kind":"` + string(platform.EventTaskPosted) + `","task":`}
	leavePrefix = [2]string{`{"kind":"` + string(platform.EventWorkerLeft) + `","worker_id":`, `{"kind":"` + string(platform.EventTaskClosed) + `","task_id":`}
)

// encodeBatch renders a POST /v1/batch body from pre-encoded profiles.
func encodeBatch(events []batchEvent, base [2]int, p *pool) ([]byte, error) {
	b := []byte{'['}
	for i, e := range events {
		if i > 0 {
			b = append(b, ',')
		}
		if e.leave {
			b = append(b, leavePrefix[e.side]...)
			b = strconv.AppendInt(b, int64(base[e.side]+e.key), 10)
		} else {
			b = append(b, joinPrefix[e.side]...)
			b = append(b, p.json[e.side][e.key]...)
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if !json.Valid(b) {
		return nil, fmt.Errorf("encoded batch is not valid JSON")
	}
	return b, nil
}
