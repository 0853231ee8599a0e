// Command perfbench is the repository's serving benchmark.  It builds a
// workload's inputs from a seed, starts the platform server in a child
// process wired like cmd/mbaserve, drives the HTTP API from this process,
// checks every answer, and prints the figures; the last line of standard
// output is one JSON object.  See README.md.
//
//	perfbench --workload round --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end figures of an untraced run.  --trace 1
// makes an untraced and a traced run of the same seed and prints the
// per-layer figures of the traced one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// untracedSetups is how many times an untraced run sets a server up;
// setup_s is their median.
const untracedSetups = 5

// generatorMemoryLimit bounds the load generator's heap while its
// collector is off during a measured phase.
const generatorMemoryLimit = 768 << 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: round or sharded-churn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of a measured phase")
	trace := fs.Int("trace", 0, "1 for the traced run's per-layer figures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload round|sharded-churn, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	// The load generator stays within two CPUs whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetMemoryLimit(generatorMemoryLimit)
	defer os.RemoveAll(workDir)

	pl, err := newPlan(wl, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(wl, pl, *seconds)
	} else {
		res, err = untracedRun(wl, pl, *seconds)
	}
	if err != nil {
		// A failed correctness check prints no result: its figures
		// describe a server that answered wrongly.
		var ce *checkError
		if errors.As(err, &ce) {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		return 1
	}
	printResult(res)
	return 0
}

func untracedRun(wl workload, pl *plan, seconds int) (*result, error) {
	ph, setupS, err := runWorkload(wl, pl, seconds, untracedSetups, false)
	if err != nil {
		return nil, err
	}
	out, err := checkPhase(pl, ph)
	if err != nil {
		return nil, err
	}
	ms := newMetricSet(endToEndUnits)
	endToEnd(ms, ph, out)
	ms.set("setup_s", median(setupS), len(setupS))
	if err := ms.complete(); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: len(ph.reqs), Failed: len(ph.reqs) - out.ok, Metrics: ms.m}, nil
}

func tracedRun(wl workload, pl *plan, seconds int) (*result, error) {
	plain, _, err := runWorkload(wl, pl, seconds, 1, false)
	if err != nil {
		return nil, err
	}
	plainOut, err := checkPhase(pl, plain)
	if err != nil {
		return nil, err
	}
	traced, _, err := runWorkload(wl, pl, seconds, 1, true)
	if err != nil {
		return nil, err
	}
	tracedOut, err := checkPhase(pl, traced)
	if err != nil {
		return nil, err
	}
	if err := sameMutual(plainOut.mutual, tracedOut.mutual); err != nil {
		return nil, err
	}
	e2ePlain, e2eTraced := newMetricSet(endToEndUnits), newMetricSet(endToEndUnits)
	endToEnd(e2ePlain, plain, plainOut)
	endToEnd(e2eTraced, traced, tracedOut)
	if e2ePlain.err != nil || e2eTraced.err != nil {
		return nil, errors.Join(e2ePlain.err, e2eTraced.err)
	}

	ms := newMetricSet(perLayerUnits)
	perLayer(ms, traced, tracedOut)
	ms.set("trace.overhead_frac", e2eTraced.m["round_p50_ms"].Value/e2ePlain.m["round_p50_ms"].Value-1, 0)
	if err := ms.complete(); err != nil {
		return nil, err
	}
	attempted := len(plain.reqs) + len(traced.reqs)
	return &result{Correct: true, Attempted: attempted, Failed: attempted - plainOut.ok - tracedOut.ok, Metrics: ms.m}, nil
}

// printResult prints a readable table, with each figure's sample count,
// then the JSON result as the last line.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Printf("%-38s %14.6g %-8s %s\n", n, m.Value, m.Unit, samples)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(b)))
}
