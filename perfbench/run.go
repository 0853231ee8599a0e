package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"

	"repro/internal/platform"
)

// workDir holds the server processes' data directories, inside the
// checkout the benchmark runs from.  Tests point it at a temporary
// directory.
var workDir = ".bench_build/perfbench-data"

// serverProc is a running server process.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Scanner
	addr   string
	dir    string
	exited chan error
}

// startServer starts the server process on a fresh data directory and
// waits for its address.
func startServer(wl workload, trace bool) (*serverProc, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg := serveConfig{dir: dir, categories: wl.categories, shards: wl.shards, solver: wl.solver, trace: trace}
	cmd := exec.Command(self, cfg.args()...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	s := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout), dir: dir, exited: make(chan error, 1)}
	s.out.Buffer(nil, 16<<20)
	var hello struct{ Addr string }
	if err := s.read(&hello); err != nil {
		s.kill()
		return nil, fmt.Errorf("server did not start: %w", err)
	}
	s.addr = hello.Addr
	return s, nil
}

func (s *serverProc) read(v any) error {
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(s.out.Bytes(), v)
}

// call sends one command and decodes its answer.
func (s *serverProc) call(cmd string, v any) error {
	if _, err := io.WriteString(s.stdin, cmd+"\n"); err != nil {
		return fmt.Errorf("server command %s: %w", cmd, err)
	}
	if err := s.read(v); err != nil {
		return fmt.Errorf("server command %s: %w", cmd, err)
	}
	return nil
}

// quit shuts the server down cleanly and waits for it to exit; a server
// that does not exit within a minute is killed.
func (s *serverProc) quit() error {
	_, werr := io.WriteString(s.stdin, "quit\n")
	s.stdin.Close()
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case err := <-s.exited:
		if werr != nil {
			return werr
		}
		return err
	case <-time.After(time.Minute):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("server did not exit within a minute of quit")
	}
}

// kill stops the server at once and removes its data.
func (s *serverProc) kill() {
	s.stdin.Close()
	s.cmd.Process.Kill()
	s.cmd.Wait()
	os.RemoveAll(s.dir)
}

// liveCounts is GET /v1/stats.
type liveCounts struct {
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	Rounds  int `json:"rounds"`
}

// setupRun starts a server and loads the initial market: the setup
// batches, then one cold round.  It returns the server, the time from
// process start until that round was answered, and the first worker and
// task IDs the server assigned.
func setupRun(wl workload, pl *plan, trace bool) (*serverProc, *client, time.Duration, [2]int, error) {
	var base [2]int
	t0 := time.Now()
	srv, err := startServer(wl, trace)
	if err != nil {
		return nil, nil, 0, base, err
	}
	c := newClient(srv.addr)
	fail := func(err error) (*serverProc, *client, time.Duration, [2]int, error) {
		c.close()
		srv.kill()
		return nil, nil, 0, base, fmt.Errorf("setup: %w", err)
	}
	if base, err = loadInitial(c, pl); err != nil {
		return fail(err)
	}
	status, resp, err := c.do("POST", "/v1/rounds", nil)
	if err != nil || status != 200 {
		return fail(fmt.Errorf("first round: status %d: %v %s", status, err, resp))
	}
	return srv, c, time.Since(t0), base, nil
}

// loadInitial posts the initial-load batches and returns the first worker
// and task IDs the server assigned, checking that IDs are dense in join
// order (the plan encodes its leaves with IDs derived from that).
func loadInitial(c *client, pl *plan) ([2]int, error) {
	var base, joined [2]int
	for i, body := range pl.setup {
		status, resp, err := c.do("POST", "/v1/batch", body)
		if err != nil || status != 200 {
			return base, fmt.Errorf("initial batch %d: status %d: %v %s", i, status, err, resp)
		}
		items, err := batchIDs(resp)
		if err != nil {
			return base, err
		}
		for _, it := range items {
			side := taskSide
			if it.Kind == platform.EventWorkerJoined {
				side = workerSide
			}
			if joined[side] == 0 {
				base[side] = it.ID
			}
			if it.ID != base[side]+joined[side] {
				return base, failCheck("ids", "initial %s got id %d, want %d", sideName[side], it.ID, base[side]+joined[side])
			}
			joined[side]++
		}
	}
	return base, nil
}

func batchIDs(resp []byte) ([]platform.BatchItem, error) {
	var out struct {
		Applied []platform.BatchItem `json:"applied"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("decoding batch answer: %w", err)
	}
	return out.Applied, nil
}

// phase is one measured phase: the requests sent and what the server
// process reported about itself.
type phase struct {
	base      [2]int
	reqs      []*request
	server    serverReport
	adm0, adm platform.AdmissionHealth
	served    liveCounts
	recovered liveCounts
}

// measurePhase runs the measured phase on a set-up server, then shuts it
// down and recovers its data directory.
func measurePhase(wl workload, pl *plan, seconds int, srv *serverProc, c *client, base [2]int) (*phase, error) {
	defer os.RemoveAll(srv.dir)
	ph := &phase{base: base}
	reqs, err := pl.encode(base)
	if err != nil {
		srv.kill()
		return nil, err
	}
	defer c.close()

	err = func() error {
		if err := srv.call("begin", &struct{}{}); err != nil {
			return err
		}
		if err := getJSON(c, "/v1/healthz", &ph.adm0); err != nil {
			return err
		}
		withoutGC(func() { ph.reqs = runClosed(c, reqs, seconds, time.Now()) })
		if err := getJSON(c, "/v1/healthz", &ph.adm); err != nil {
			return err
		}
		if err := getJSON(c, "/v1/stats", &ph.served); err != nil {
			return err
		}
		if err := srv.call("end", &ph.server); err != nil {
			return err
		}
		if ph.server.Error != "" {
			return errors.New("server: " + ph.server.Error)
		}
		return nil
	}()
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.quit(); err != nil {
		return nil, err
	}
	ph.recovered, err = recoverCounts(wl, srv.dir)
	return ph, err
}

// getJSON decodes a GET answer; for healthz only the admission slice is
// kept.
func getJSON(c *client, path string, v any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	if adm, ok := v.(*platform.AdmissionHealth); ok {
		var h platform.HealthStatus
		if err := json.Unmarshal(body, &h); err != nil {
			return err
		}
		if h.Admission == nil {
			return fmt.Errorf("GET %s: no admission figures (admission off?)", path)
		}
		*adm = *h.Admission
		return nil
	}
	return json.Unmarshal(body, v)
}

// runWorkload makes one untraced or traced run: setups set-ups (all but
// the last on throwaway servers), then the measured phase on the last.
func runWorkload(wl workload, pl *plan, seconds, setups int, trace bool) (*phase, []float64, error) {
	var setupS []float64
	var base0 [2]int
	for i := 0; ; i++ {
		srv, c, d, base, err := setupRun(wl, pl, trace)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i > 0 && base != base0 {
			c.close()
			srv.kill()
			return nil, nil, failCheck("ids", "set-up %d assigned first ids %v, set-up 0 %v", i, base, base0)
		}
		base0 = base
		if i == setups-1 {
			ph, err := measurePhase(wl, pl, seconds, srv, c, base)
			return ph, setupS, err
		}
		c.close()
		if err := srv.quit(); err != nil {
			return nil, nil, err
		}
		os.RemoveAll(srv.dir)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
