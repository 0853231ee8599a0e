package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/platform"
)

// The server process.  It assembles the serving stack the way cmd/mbaserve
// does with `-snapshot-dir <dir>` (plus `-shards`, `-solver` and
// `-categories` where a workload names them) and leaves every other
// option at mbaserve's default, so a later change of a default is measured.
// It listens on a loopback port and takes commands on standard input, one
// per line, answering each with one JSON line on standard output:
//
//	begin  start the measured window        → {}
//	end    close it and report its figures   → serverReport
//	quit   shut down, closing the journals   (no answer; the process exits)

// mbaserve's flag defaults for what the benchmark does not vary.
const (
	serveSeed          = 42
	serveSnapshotEvery = 50
	serveSnapshotKeep  = 2
)

// serveConfig is the server process's command line.
type serveConfig struct {
	dir        string
	categories int
	shards     int
	solver     string
	trace      bool
}

func (c serveConfig) args() []string {
	return []string{"serve",
		"--dir", c.dir,
		"--categories", strconv.Itoa(c.categories),
		"--shards", strconv.Itoa(c.shards),
		"--solver", c.solver,
		"--trace=" + strconv.FormatBool(c.trace),
	}
}

// reading is one figure the server process measured, with its sample count.
type reading struct {
	V float64 `json:"v"`
	N int     `json:"n"`
}

// serverReport answers "end": the server process's own cost over the
// measured window, and with tracing on its per-layer figures.
type serverReport struct {
	CPUMicros   float64            `json:"cpu_us"`
	RetainedKiB float64            `json:"retained_kib"` // resident set after a full collection
	Layers      map[string]reading `json:"layers,omitempty"`
	Error       string             `json:"error,omitempty"`
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var c serveConfig
	fs.StringVar(&c.dir, "dir", "", "data directory (segmented journal + snapshots)")
	fs.IntVar(&c.categories, "categories", 30, "category universe size")
	fs.IntVar(&c.shards, "shards", 1, "shard markets")
	fs.StringVar(&c.solver, "solver", "greedy", "assignment algorithm")
	fs.BoolVar(&c.trace, "trace", false, "wrap the layers in tracing wrappers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.dir == "" {
		return errors.New("serve: --dir is required")
	}
	log.SetOutput(os.Stderr)

	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	stack, err := buildStack(c, rec)
	if err != nil {
		return err
	}

	var handler http.Handler = platform.NewServerWithOptions(stack.backend, mbaserveServerOptions())
	if rec != nil {
		handler = &tracedHandler{next: handler, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]string{"addr": ln.Addr().String()}); err != nil {
		return err
	}

	var win window
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch cmd := strings.TrimSpace(in.Text()); cmd {
		case "begin":
			win.begin(rec)
			err = out.Encode(struct{}{})
		case "end":
			err = out.Encode(win.end(rec, stack))
		case "quit":
			return stack.shutdown(srv, serveErr)
		default:
			err = fmt.Errorf("serve: unknown command %q", cmd)
		}
		if err != nil {
			return err
		}
	}
	// Standard input closed without "quit": the load generator is gone.
	return stack.shutdown(srv, serveErr)
}

// mbaserveServerOptions mirrors mbaserve's serverOptions with admission on
// and every rate flag at its default.
func mbaserveServerOptions() platform.ServerOptions {
	opts := platform.NewServerOptions()
	adm := platform.NewAdmissionOptions()
	adm.Seed = serveSeed
	opts.Admission = adm
	return opts
}

// stack is the assembled backend and what shutdown must close.
type stack struct {
	backend platform.Backend
	segs    []*platform.SegmentedLog
	states  []*platform.State // parallel to segs
}

// buildStack wires the backend like mbaserve's snapshot-dir mode: one
// segmented journal and checkpoint manager per market (per shard when
// sharded), each shard with its own solver.  With rec set, every backend,
// journal and solver is wrapped in its tracing wrapper.
func buildStack(c serveConfig, rec *recorder) (*stack, error) {
	// mbaserve's journal options; the format is left at its zero value,
	// the library default.
	logOpts := platform.LogOptions{
		Fsync:        platform.FsyncNever,
		MaxRetries:   3,
		RetryBackoff: 2 * time.Millisecond,
		GroupCommit:  true,
	}
	segOpts := platform.SegmentOptions{MaxBytes: platform.DefaultSegmentBytes, Log: logOpts}
	cpOpts := platform.CheckpointOptions{EveryRounds: serveSnapshotEvery, Keep: serveSnapshotKeep}
	params := benefit.Params{Lambda: 0.5, Beta: 0.5}
	st := &stack{}

	newSolver := func(shard int) (core.Solver, error) {
		s, err := core.ByName(c.solver)
		if err != nil || rec == nil {
			return s, err
		}
		return wrapSolver(s, shard, rec), nil
	}
	journal := func(seg *platform.SegmentedLog) platform.Journal {
		if rec == nil {
			return seg
		}
		return wrapJournal(seg, rec)
	}

	if c.shards > 1 {
		states, _, err := platform.RecoverShardedDir(c.dir, c.categories, c.shards)
		if err != nil {
			return nil, err
		}
		bundles := make([]platform.Shard, c.shards)
		for k := range bundles {
			solver, err := newSolver(k)
			if err != nil {
				return nil, err
			}
			seg, err := platform.OpenSegmentedLog(platform.ShardDir(c.dir, k), segOpts)
			if err != nil {
				return nil, err
			}
			st.segs = append(st.segs, seg)
			st.states = append(st.states, states[k])
			cm, err := platform.NewCheckpointManager(states[k], seg, cpOpts)
			if err != nil {
				return nil, err
			}
			bundles[k] = platform.Shard{State: states[k], Solver: solver, Journal: journal(seg), Checkpoint: cm}
		}
		ss, err := platform.NewShardedService(bundles, params, platform.ShardedOptions{}, serveSeed)
		if err != nil {
			return nil, err
		}
		st.backend = ss
	} else {
		state, _, err := platform.RecoverDir(c.dir, c.categories)
		if err != nil {
			return nil, err
		}
		seg, err := platform.OpenSegmentedLog(c.dir, segOpts)
		if err != nil {
			return nil, err
		}
		st.segs = append(st.segs, seg)
		st.states = append(st.states, state)
		solver, err := newSolver(0)
		if err != nil {
			return nil, err
		}
		svc, err := platform.NewService(state, solver, params, journal(seg), serveSeed)
		if err != nil {
			return nil, err
		}
		cm, err := platform.NewCheckpointManager(state, seg, cpOpts)
		if err != nil {
			return nil, err
		}
		svc.SetCheckpointer(cm)
		st.backend = svc
	}
	if rec != nil {
		st.backend = wrapBackend(st.backend, rec)
	}
	return st, nil
}

// shutdown drains the HTTP server and closes the journals.  Unlike
// mbaserve it takes no parting checkpoint, so the recovery check after the
// run replays the journal tail instead of only loading a snapshot.
func (st *stack) shutdown(srv *http.Server, serveErr <-chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, seg := range st.segs {
		if cerr := seg.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// window is the measured interval between "begin" and "end".
type window struct {
	cpu0   float64
	alloc0 float64
	gc0    float64
	heap   *heapSampler
}

// runtime/metrics names read in the traced run.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
)

func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func (w *window) begin(rec *recorder) {
	// Collect and return freed memory first, so every phase starts from
	// the same heap whatever the set-up left behind and the garbage
	// collector's cycles fall at the same points of a closed loop.
	debug.FreeOSMemory()
	// An error here recurs at "end", which reports it.
	w.cpu0, _ = cpuMicros()
	if rec == nil {
		return
	}
	rt := readRuntime(rmAllocBytes, rmGCCycles)
	w.alloc0, w.gc0 = rt[0], rt[1]
	w.heap = startHeapSampler()
	rec.start()
}

func (w *window) end(rec *recorder, st *stack) serverReport {
	var rep serverReport
	cpu, err := cpuMicros()
	rep.CPUMicros = cpu - w.cpu0
	if err == nil && rec != nil {
		rep.Layers, err = w.layers(rec, st)
	}
	if err == nil {
		// Last, so the collection it forces counts in none of the figures
		// above.
		debug.FreeOSMemory()
		rep.RetainedKiB, err = vmRSSKiB()
	}
	if err != nil {
		rep.Error = err.Error()
	}
	return rep
}

// layers closes the traced window and returns its per-layer figures.
func (w *window) layers(rec *recorder, st *stack) (map[string]reading, error) {
	rec.stop()
	peak := w.heap.stop()
	rt := readRuntime(rmAllocBytes, rmGCCycles)
	layers, err := rec.layers(st)
	if err != nil {
		return nil, err
	}
	layers["runtime.gc_cycles"] = reading{V: rt[1] - w.gc0}
	layers["runtime.alloc_bytes"] = reading{V: rt[0] - w.alloc0}
	layers["runtime.heap_peak_mb"] = reading{V: peak / (1 << 20)}
	return layers, nil
}

// heapSampler tracks the peak of live heap objects between start and
// stop, reading them every 10 ms; runtime/metrics has no high-water mark
// of its own.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, readRuntime(rmHeapBytes)[0])
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// cpuMicros is this process's user+system CPU time.
func cpuMicros() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// vmRSSKiB is this process's resident set size.
func vmRSSKiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}
