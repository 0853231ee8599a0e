package platform

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/benefit"
)

// buildCleanLog returns a valid journal as bytes plus the event count.
func buildCleanLog(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := NewLog(&buf)
	s := mustState(t)
	for i := 0; i < n; i++ {
		var e Event
		var err error
		if i%2 == 0 {
			e, err = s.Apply(NewWorkerJoined(validWorker()))
		} else {
			e, err = s.Apply(NewTaskPosted(validTask()))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReadLogPartialCleanLog(t *testing.T) {
	data := buildCleanLog(t, 6)
	events, dropped := ReadLogPartial(bytes.NewReader(data))
	if dropped != nil {
		t.Fatalf("clean log reported drop: %v", dropped)
	}
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestReadLogPartialTornTail(t *testing.T) {
	data := buildCleanLog(t, 5)
	// Simulate a crash mid-Append: cut the last line in half.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n')
	torn := append([]byte{}, data[:cut+10]...) // half of the final line

	events, dropped := ReadLogPartial(bytes.NewReader(torn))
	if dropped == nil {
		t.Fatal("torn tail not reported")
	}
	if len(events) != 4 {
		t.Fatalf("recovered %d events, want 4", len(events))
	}
	// The recovered prefix must replay.
	state, err := Replay(3, events)
	if err != nil {
		t.Fatal(err)
	}
	w, tk := state.Counts()
	if w+tk != 4 {
		t.Fatalf("recovered state has %d entities", w+tk)
	}
}

func TestRecoverLogEndToEnd(t *testing.T) {
	data := buildCleanLog(t, 8)
	torn := append(append([]byte{}, data...), []byte(`{"seq":999,"kind":"worker`)...)
	state, replayErr, dropped := RecoverLog(3, bytes.NewReader(torn))
	if replayErr != nil {
		t.Fatal(replayErr)
	}
	if dropped == nil || !strings.Contains(dropped.Error(), "recovered 8 events") {
		t.Fatalf("diagnostic = %v", dropped)
	}
	w, tk := state.Counts()
	if w != 4 || tk != 4 {
		t.Fatalf("counts (%d,%d)", w, tk)
	}
}

func TestReadLogPartialMidLogCorruption(t *testing.T) {
	data := buildCleanLog(t, 6)
	lines := bytes.Split(data, []byte("\n"))
	lines[2] = []byte("{garbage")
	corrupted := bytes.Join(lines, []byte("\n"))
	events, dropped := ReadLogPartial(bytes.NewReader(corrupted))
	if dropped == nil {
		t.Fatal("mid-log corruption not reported")
	}
	if len(events) != 2 {
		t.Fatalf("recovered %d events, want the 2 before the corruption", len(events))
	}
}

// TestLegacySingleMarketDirUpgrades recovers a segmented directory written
// the way a single market used to assign IDs — the state's counters, so
// worker 0 and task 0 come first — and serves it: the ID-0 entities take
// part in rounds, leave and close; fresh IDs continue from the recovered
// counters; and the directory still replays byte-identical to the live
// state.
func TestLegacySingleMarketDirUpgrades(t *testing.T) {
	dir := t.TempDir()
	legacy := mustState(t)
	seg, err := OpenSegmentedLog(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{NewWorkerJoined(validWorker()), NewTaskPosted(validTask()), NewTaskPosted(validTask())} {
		if _, err := legacy.ApplyJournaled(e, seg.Append); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := legacy.Worker(0); !ok {
		t.Fatal("legacy journal has no worker 0")
	}
	if _, ok := legacy.Task(0); !ok {
		t.Fatal("legacy journal has no task 0")
	}

	state, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	seg, err = OpenSegmentedLog(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	svc, err := NewService(state, greedySolver(), benefit.DefaultParams(), seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	assigned := false
	for _, p := range res.Pairs {
		assigned = assigned || p.WorkerID == 0
	}
	if !assigned {
		t.Fatalf("worker 0 not assigned: %+v", res.Pairs)
	}

	w, err := svc.Submit(NewWorkerJoined(validWorker()))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := svc.Submit(NewTaskPosted(validTask()))
	if err != nil {
		t.Fatal(err)
	}
	if w.Worker.ID != 1 || tk.Task.ID != 2 {
		t.Fatalf("fresh IDs worker %d task %d, want 1 and 2", w.Worker.ID, tk.Task.ID)
	}
	if _, err := svc.Submit(NewWorkerLeft(0)); err != nil {
		t.Fatalf("worker 0 leave: %v", err)
	}
	if _, err := svc.SubmitBatch([]Event{NewTaskClosed(0)}); err != nil {
		t.Fatalf("task 0 close: %v", err)
	}
	if _, err := svc.CloseRound(); err != nil {
		t.Fatal(err)
	}
	if w, tasks := svc.Counts(); w != 1 || tasks != 2 {
		t.Fatalf("counts %d workers %d tasks, want 1 and 2", w, tasks)
	}

	replayed, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, replayed), stateBytes(t, svc.State())) {
		t.Fatal("replayed directory differs from the live state")
	}
}
