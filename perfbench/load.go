package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// client is one keep-alive HTTP/1.1 connection driven synchronously: the
// request bytes are written and the answer read on the calling goroutine,
// with no transport goroutines between the load generator and the socket.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// rawRequest renders one HTTP/1.1 request.
func rawRequest(method, path string, body []byte) []byte {
	b := make([]byte, 0, len(body)+128)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// roundTrip writes one rendered request and reads the whole answer,
// dialling first if the connection is not open.
func (c *client) roundTrip(raw []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	if _, err := c.conn.Write(raw); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, b, err
}

// do sends one request and reads the whole answer.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	return c.roundTrip(rawRequest(method, path, body))
}

// send issues r now, recording when it left and when its answer was read.
func (c *client) send(r *request, start time.Time) {
	r.sent = time.Since(start)
	status, body, err := c.roundTrip(r.raw)
	r.done = time.Since(start)
	r.status, r.err = status, err
	if r.op.kind != opLeave {
		r.resp = body
	}
}

// spinMargin is how long before a due time the generator stops sleeping
// and yields the CPU in a loop instead.  The Go timer oversleeps by up to
// a millisecond on a virtual machine, and even a precise nanosleep wakes a
// halted virtual CPU tens to hundreds of microseconds late; yielding
// through the last stretch keeps the CPU awake, so a request leaves
// within microseconds of its due time.  Sleeping through the rest leaves
// the CPU to the server.
const spinMargin = 400 * time.Microsecond

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// waitUntil returns at start+due: nanosleep for the bulk, then yield
// until due.
func waitUntil(start time.Time, due time.Duration) {
	if rest := due - time.Since(start) - spinMargin; rest > 0 {
		// The slack is per thread and the goroutine may have moved; the
		// call is cheap, and without it nanosleep wakes up to 50 µs late.
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(rest))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Since(start) < due {
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// withoutGC runs f with the generator's garbage collector off, so its
// pauses and assists stay out of a measured phase.  The memory limit the
// benchmark sets still collects if the heap grows past it.
func withoutGC(f func()) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
}

// runClosed drives a closed loop over one connection: each request is
// sent when the previous one is answered, a step (batch, single events,
// round) starts no sooner than 1/maxStepRate after the previous one, and
// the loop stops at the first step boundary after seconds have passed and
// minRounds rounds have closed.  It returns the requests it sent.
func runClosed(c *client, reqs []*request, seconds int, start time.Time) []*request {
	limit := time.Duration(seconds) * time.Second
	stepGap := time.Second / maxStepRate
	var stepStart, prevDone time.Duration
	rounds := 0
	for i, r := range reqs {
		// due is when the loop meant to send: on the previous answer, or
		// at the step-rate cap.
		r.due = prevDone
		if r.op.kind == opBatch {
			if prevDone >= limit && rounds >= minRounds || prevDone >= limit+overrun {
				return reqs[:i]
			}
			if i > 0 {
				r.due = max(prevDone, stepStart+stepGap)
				waitUntil(start, r.due)
			}
			stepStart = r.due
		}
		c.send(r, start)
		prevDone = r.done
		if r.op.kind == opRound {
			rounds++
		}
	}
	return reqs
}

// okStatus reports whether r was answered with its success status.
func okStatus(r *request) bool {
	want := http.StatusOK
	switch r.op.kind {
	case opJoin:
		want = http.StatusCreated
	case opLeave:
		want = http.StatusNoContent
	}
	return r.status == want
}

// describe names a request for error messages.
func (r *request) describe() string {
	return fmt.Sprintf("%s %s (sent at %v)", r.method, r.path, r.sent)
}
