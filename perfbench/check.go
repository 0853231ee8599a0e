package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/platform"
)

// The correctness gate.  Each failure names its check:
//
//	ids       the server assigned IDs other than the dense join-order
//	          ones the plan encoded its leaves with
//	pairs     a committed pair exceeds a worker's capacity or a task's
//	          replication, repeats, or joins an entity the generator's
//	          model says was not live during the round
//	counts    the served live counts or round count differ from the model
//	recovery  recovering the data directory does not reproduce them
//	mutual    a closed loop's per-round mutual benefit differs between the
//	          untraced and traced runs of one seed

// checkError is a failed correctness check.
type checkError struct {
	check string
	msg   string
}

func (e *checkError) Error() string { return "check " + e.check + ": " + e.msg }

func failCheck(check, format string, args ...any) error {
	return &checkError{check: check, msg: fmt.Sprintf(format, args...)}
}

// lifetime is when an entity was live in the measured phase's clock.
type lifetime struct {
	joined    bool
	joinSent  time.Duration // the request carrying the join was sent
	left      bool
	leaveDone time.Duration // the request carrying the leave was answered
}

// outcome is a checked phase: the rounds' results and the counts the
// figures are computed from.
type outcome struct {
	rounds   []*platform.RoundResult // successful rounds, in send order
	roundReq []*request
	mutual   []float64 // per successful round
	events   int       // acknowledged events, single and batched
	ok       int
}

// checkPhase verifies a phase's answers against the plan's model.
func checkPhase(pl *plan, ph *phase) (*outcome, error) {
	out := &outcome{}
	var life [2][]lifetime
	for side := range life {
		life[side] = make([]lifetime, len(pl.pool.json[side]))
	}
	initial := [2]int{pl.pool.wl.workers, pl.pool.wl.tasks}
	live := initial
	for side, n := range initial {
		for k := 0; k < n; k++ {
			life[side][k] = lifetime{joined: true, joinSent: math.MinInt64}
		}
	}
	for _, r := range ph.reqs {
		if r.err != nil || !okStatus(r) {
			if r.op.kind == opJoin || r.op.kind == opBatch {
				// The server assigned no IDs for it, so every later ID
				// the plan rendered is off.
				return nil, failCheck("ids", "%s failed: status %d, %v, %.200s", r.describe(), r.status, r.err, r.resp)
			}
			continue
		}
		out.ok++
		o := r.op
		switch o.kind {
		case opJoin:
			var ans struct{ ID int }
			if err := json.Unmarshal(r.resp, &ans); err != nil {
				return nil, failCheck("ids", "%s: %v", r.describe(), err)
			}
			if want := ph.base[o.side] + o.key; ans.ID != want {
				return nil, failCheck("ids", "%s: got id %d, want %d", r.describe(), ans.ID, want)
			}
			life[o.side][o.key] = lifetime{joined: true, joinSent: r.sent}
			live[o.side]++
			out.events++
		case opLeave:
			life[o.side][o.key].left, life[o.side][o.key].leaveDone = true, r.done
			live[o.side]--
			out.events++
		case opBatch:
			items, err := batchIDs(r.resp)
			if err != nil || len(items) != len(o.batch) {
				return nil, failCheck("ids", "%s: %d items for %d events: %v", r.describe(), len(items), len(o.batch), err)
			}
			for i, e := range o.batch {
				if want := ph.base[e.side] + e.key; items[i].ID != want {
					return nil, failCheck("ids", "%s: event %d got id %d, want %d", r.describe(), i, items[i].ID, want)
				}
				if e.leave {
					life[e.side][e.key].left, life[e.side][e.key].leaveDone = true, r.done
					live[e.side]--
				} else {
					life[e.side][e.key] = lifetime{joined: true, joinSent: r.sent}
					live[e.side]++
				}
			}
			out.events += len(o.batch)
		case opRound:
			var res platform.RoundResult
			if err := json.Unmarshal(r.resp, &res); err != nil {
				return nil, failCheck("pairs", "%s: decoding: %v", r.describe(), err)
			}
			out.rounds = append(out.rounds, &res)
			out.roundReq = append(out.roundReq, r)
		}
	}
	for i, res := range out.rounds {
		m, err := checkPairs(pl, ph.base, &life, res, out.roundReq[i])
		if err != nil {
			return nil, err
		}
		out.mutual = append(out.mutual, m)
	}

	want := liveCounts{Workers: live[workerSide], Tasks: live[taskSide], Rounds: 1 + len(out.rounds)}
	if ph.served != want {
		return nil, failCheck("counts", "server reports %+v, model %+v", ph.served, want)
	}
	if ph.recovered != ph.served {
		return nil, failCheck("recovery", "recovered %+v, served %+v", ph.recovered, ph.served)
	}
	return out, nil
}

// checkPairs verifies one round's committed pairs and returns their
// summed mutual benefit.  A pair's entities must have joined before the
// round was answered and not have left before it was sent.
func checkPairs(pl *plan, base [2]int, life *[2][]lifetime, res *platform.RoundResult, r *request) (float64, error) {
	var used [2]map[int]int
	used[workerSide], used[taskSide] = map[int]int{}, map[int]int{}
	seen := map[[2]int]bool{}
	var sum float64
	for _, p := range res.Pairs {
		keys := [2]int{p.WorkerID - base[workerSide], p.TaskID - base[taskSide]}
		if seen[keys] {
			return 0, failCheck("pairs", "round %d: pair worker %d task %d repeated", res.Round, p.WorkerID, p.TaskID)
		}
		seen[keys] = true
		for side, k := range keys {
			if k < 0 || k >= len(life[side]) {
				return 0, failCheck("pairs", "round %d: unknown %s id %d", res.Round, sideName[side], k+base[side])
			}
			l := life[side][k]
			if !l.joined || l.joinSent >= r.done || l.left && l.leaveDone <= r.sent {
				return 0, failCheck("pairs", "round %d: %s id %d was not live", res.Round, sideName[side], k+base[side])
			}
			used[side][k]++
			if limit := pl.pool.limit[side][k]; used[side][k] > limit {
				return 0, failCheck("pairs", "round %d: %s id %d assigned %d times, limit %d",
					res.Round, sideName[side], k+base[side], used[side][k], limit)
			}
		}
		sum += p.Mutual
	}
	return sum, nil
}

// recoverCounts rebuilds the market from a stopped server's data
// directory the way a restarted mbaserve would.
func recoverCounts(wl workload, dir string) (liveCounts, error) {
	if wl.shards <= 1 {
		st, _, err := platform.RecoverDir(dir, wl.categories)
		if err != nil {
			return liveCounts{}, failCheck("recovery", "%v", err)
		}
		w, t := st.Counts()
		return liveCounts{Workers: w, Tasks: t, Rounds: st.Rounds()}, nil
	}
	states, _, err := platform.RecoverShardedDir(dir, wl.categories, wl.shards)
	if err != nil {
		return liveCounts{}, failCheck("recovery", "%v", err)
	}
	bundles := make([]platform.Shard, len(states))
	for k, st := range states {
		solver, err := core.ByName("greedy")
		if err != nil {
			return liveCounts{}, err
		}
		bundles[k] = platform.Shard{State: st, Solver: solver}
	}
	ss, err := platform.NewShardedService(bundles, benefit.Params{Lambda: 0.5, Beta: 0.5}, platform.ShardedOptions{}, serveSeed)
	if err != nil {
		return liveCounts{}, failCheck("recovery", "%v", err)
	}
	w, t := ss.Counts()
	return liveCounts{Workers: w, Tasks: t, Rounds: ss.Rounds()}, nil
}

// sameMutual compares the per-round mutual benefit of two closed-loop
// runs of one seed over the rounds both closed.
func sameMutual(a, b []float64) error {
	n := min(len(a), len(b), minRounds)
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return failCheck("mutual", "round %d: untraced %v, traced %v", i+2, a[i], b[i])
		}
	}
	return nil
}
