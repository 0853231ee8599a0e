package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as a
// child process: "serve" runs the platform server exactly as a benchmark
// run does, "noop" a server that answers every request at once.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := serveMain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		case "noop":
			os.Exit(noopServer())
		}
	}
	os.Exit(m.Run())
}

// noopServer answers each route with its success status and no work,
// until standard input closes.
func noopServer() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 1
	}
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodDelete:
			w.WriteHeader(http.StatusNoContent)
		case r.URL.Path == "/v1/batch" || r.URL.Path == "/v1/rounds":
			w.WriteHeader(http.StatusOK)
		default:
			w.WriteHeader(http.StatusCreated)
		}
	}))
	if err := json.NewEncoder(os.Stdout).Encode(map[string]string{"addr": ln.Addr().String()}); err != nil {
		return 1
	}
	bufio.NewScanner(os.Stdin).Scan()
	return 0
}

// selfTestSteps is how many steps of a plan the self-test replays.
const selfTestSteps = 12

// closedPhase replays the first selfTestSteps steps of a plan against addr.
func closedPhase(t *testing.T, pl *plan, addr string, base [2]int) []*request {
	t.Helper()
	all, err := pl.encode(base)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*request
	steps := 0
	for _, r := range all {
		if r.op.kind == opBatch {
			if steps == selfTestSteps {
				break
			}
			steps++
		}
		reqs = append(reqs, r)
	}
	c := newClient(addr)
	defer c.close()
	withoutGC(func() { reqs = runClosed(c, reqs, 0, time.Now()) })
	for _, r := range reqs {
		if r.err != nil || !okStatus(r) {
			t.Fatalf("%s: status %d, %v", r.describe(), r.status, r.err)
		}
	}
	return reqs
}

// TestGeneratorMeasuresTheServer drives the closed-loop generator against
// a server process that does nothing and against the platform's server
// process, and checks that the generator's own share of the figure is
// small: its median against the no-op server sits well below the
// platform's, and its lateness is reported and far below either.  A
// generator whose timer oversleeps (about a millisecond on a virtual
// machine) at the step-rate cap, or that takes long to turn an answer
// into the next request, fails this.
func TestGeneratorMeasuresTheServer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	workDir = t.TempDir()
	wl, err := workloadByName("round")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPlan(wl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	srv, c, _, base, err := setupRun(wl, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	c.close()
	platformReqs := closedPhase(t, pl, srv.addr, base)
	if err := srv.quit(); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	noop := exec.Command(self, "noop")
	stdin, err := noop.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := noop.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := noop.Start(); err != nil {
		t.Fatal(err)
	}
	defer noop.Wait()
	defer stdin.Close()
	var hello struct{ Addr string }
	if err := json.NewDecoder(stdout).Decode(&hello); err != nil {
		t.Fatal(err)
	}
	noopReqs := closedPhase(t, pl, hello.Addr, base)

	platP50, n, err := ackP50(platformReqs)
	if err != nil {
		t.Fatal(err)
	}
	noopP50, _, err := ackP50(noopReqs)
	if err != nil {
		t.Fatal(err)
	}
	set := newMetricSet(map[string]string{"gen.late_p50_ms": "ms", "gen.late_p90_ms": "ms"})
	genLate(set, noopReqs)
	if err := set.complete(); err != nil {
		t.Fatalf("generator lateness not reported: %v", err)
	}
	late50, late90 := set.m["gen.late_p50_ms"].Value, set.m["gen.late_p90_ms"].Value
	t.Logf("ack p50 over %d writes: no-op %.3f ms, platform %.3f ms; generator late p50 %.4f ms, p90 %.4f ms",
		n, noopP50, platP50, late50, late90)
	if noopP50 > 0.85*platP50 {
		t.Errorf("no-op ack p50 %.3f ms is not well below the platform's %.3f ms", noopP50, platP50)
	}
	// The median, not the p90: against the no-op server every step ends
	// early and waits for the step-rate cap, and a host that deschedules
	// the virtual machine makes that wait's end late.
	if late50 > noopP50/4 {
		t.Errorf("generator late p50 %.3f ms is a large share of the no-op ack p50 %.3f ms", late50, noopP50)
	}
}

// ackP50 is the median single-event latency of a phase.
func ackP50(reqs []*request) (float64, int, error) {
	var ack []float64
	for _, r := range reqs {
		if r.op.kind == opJoin || r.op.kind == opLeave {
			ack = append(ack, ms(r.latency()))
		}
	}
	return percentile(ack, 0.5)
}
