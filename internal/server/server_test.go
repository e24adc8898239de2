package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"protean"
	"protean/internal/wire"
)

// startTestServer runs a daemon on loopback TCP and returns its
// address; cleanup drains it.
func startTestServer(t testing.TB, cfg Config) (srv *Server, addr string) {
	t.Helper()
	srv = New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// tinySpec builds a minimal valid scenario: jobs echo jobs on one
// node, seeded for deterministic comparison.
func tinySpec(t testing.TB, seed int64, jobs int) []byte {
	t.Helper()
	sc := protean.Scenario{
		Seed:  seed,
		Nodes: []protean.NodeSpec{{Session: protean.SessionSpec{Scale: 800}}},
		Jobs:  []protean.JobSpec{{Workload: "echo/hw-nosoft", Count: jobs}},
	}
	spec, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDaemonRoundTrip(t *testing.T) {
	_, addr := startTestServer(t, Config{})
	c := dialTest(t, addr)
	if c.Server() != "proteand" {
		t.Errorf("server name %q", c.Server())
	}

	spec := tinySpec(t, 11, 2)
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job == 0 {
		t.Fatal("job id 0")
	}

	var events int
	done, err := c.Watch(job, func(protean.Event) { events++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != wire.StateDone || done.Job != job {
		t.Fatalf("watch done %+v", done)
	}

	st, err := c.Status(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateDone || st.Makespan == 0 {
		t.Fatalf("status %+v", st)
	}

	fr, err := c.Result(job)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := protean.LoadScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := protean.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(fr)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("daemon result differs from direct run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestDaemonGoldenWireIdentity is the acceptance bar end to end: the
// golden scenario submitted over the wire must produce a FleetResult
// whose JSON is byte-identical to running it in-process.
func TestDaemonGoldenWireIdentity(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenario_uniform.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := protean.LoadScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := protean.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	_, addr := startTestServer(t, Config{})
	c := dialTest(t, addr)
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Watch(job, nil, nil); err != nil || done.State != wire.StateDone {
		t.Fatalf("watch: %+v, %v", done, err)
	}
	fr, err := c.Result(job)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("wire FleetResult JSON differs from in-process run:\n got %d bytes\nwant %d bytes", len(gotJSON), len(wantJSON))
	}
}

func TestDaemonErrors(t *testing.T) {
	_, addr := startTestServer(t, Config{})
	c := dialTest(t, addr)

	if _, err := c.Status(99); err == nil {
		t.Error("status of unknown job succeeded")
	}
	if _, err := c.Result(99); err == nil {
		t.Error("result of unknown job succeeded")
	}
	if _, err := c.Cancel(99); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
	if _, err := c.Submit([]byte(`{"bogus_field": 1}`)); err == nil {
		t.Error("submit of invalid spec succeeded")
	}
	if _, err := c.Submit([]byte(`not json`)); err == nil {
		t.Error("submit of non-JSON succeeded")
	}

	// Result of a job that failed verification is an error carrying the
	// job's failed state, not a FleetResult.
	sc := protean.Scenario{
		Seed:  1,
		Nodes: []protean.NodeSpec{{Session: protean.SessionSpec{Scale: 800}}},
		Jobs:  []protean.JobSpec{{Workload: "echo/hw-nosoft"}},
	}
	spec, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Watch(job, nil, nil); err != nil || done.State != wire.StateDone {
		t.Fatalf("watch: %+v, %v", done, err)
	}
	// Metrics snapshot reflects the submission.
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var sawSubmits bool
	for _, m := range snap.Metrics {
		if m.Name == "proteand_submits_total" && m.Value >= 1 {
			sawSubmits = true
		}
	}
	if !sawSubmits {
		t.Errorf("metrics snapshot missing proteand_submits_total: %+v", snap.Metrics)
	}
}

// TestDaemonRejectsTraceOut: a spec submitted over the wire must not set
// host-side run settings. trace_out names a file for the daemon to
// create, workers sizes the daemon's goroutine pool, and the retired
// lanes knob fails validation. Each submit gets an Error reply, no job
// starts, and nothing appears at the trace_out path.
func TestDaemonRejectsTraceOut(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{})
	l, err := net.Listen("unix", filepath.Join(dir, "proteand.sock"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := Dial("unix", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	base, err := json.Marshal(protean.Scenario{
		Seed:  1,
		Nodes: []protean.NodeSpec{{Session: protean.SessionSpec{Scale: 800}}},
		Jobs:  []protean.JobSpec{{Workload: "echo/hw-nosoft"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "victim.json")
	quoted, err := json.Marshal(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, field, want string
	}{
		{"trace_out", `"trace_out":` + string(quoted), ErrTraceOut.Error()},
		{"workers", `"workers":2`, ErrWorkers.Error()},
		{"lanes", `"lanes":1`, "lanes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := append([]byte("{"+tc.field+","), base[1:]...)
			job, err := c.Submit(spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("submit with %s: job %d, err %v; want %q", tc.field, job, err, tc.want)
			}
		})
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range snap.Metrics {
		if m.Name == "proteand_submits_total" && m.Value != 0 {
			t.Errorf("rejected spec started a job: proteand_submits_total = %d", m.Value)
		}
	}
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("daemon touched the trace_out path: stat err %v", err)
	}
}

// TestDaemonCancel pins cancel semantics deterministically: the test
// occupies the single MaxActive slot itself, so the submitted job is
// guaranteed still queued when the cancel lands.
func TestDaemonCancel(t *testing.T) {
	srv, addr := startTestServer(t, Config{MaxActive: 1})
	c := dialTest(t, addr)

	srv.sem <- struct{}{} // hold the only execution slot
	jobB, err := c.Submit(tinySpec(t, 22, 1))
	if err != nil {
		t.Fatal(err)
	}
	okB, err := c.Cancel(jobB)
	if err != nil {
		t.Fatal(err)
	}
	if !okB {
		t.Fatal("cancel of queued job reported already-finished")
	}
	<-srv.sem // release: the job may now observe its canceled context
	doneB, err := c.Watch(jobB, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doneB.State != wire.StateCanceled {
		t.Fatalf("canceled job finished as %q (%s)", doneB.State, doneB.Err)
	}
	if _, err := c.Result(jobB); err == nil {
		t.Error("result of canceled job succeeded")
	}
	st, err := c.Status(jobB)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateCanceled {
		t.Errorf("status of canceled job: %+v", st)
	}

	// A job that runs to completion reports already-finished on cancel.
	jobA, err := c.Submit(tinySpec(t, 21, 2))
	if err != nil {
		t.Fatal(err)
	}
	doneA, err := c.Watch(jobA, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doneA.State != wire.StateDone {
		t.Fatalf("job A finished as %q (%s)", doneA.State, doneA.Err)
	}
	okA, err := c.Cancel(jobA)
	if err != nil {
		t.Fatal(err)
	}
	if okA {
		t.Error("cancel of finished job reported canceled")
	}
}

// TestWatcherBackpressure pins the counted-drop contract at the queue
// level, with no pump running so the queue state is exact: a full
// queue sheds events into the drop counter, and the next successful
// send is preceded by an EventGap carrying the count.
func TestWatcherBackpressure(t *testing.T) {
	srv := New(Config{QueueDepth: 1})
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	c := newConn(srv, server) // pump intentionally not started
	w := &watcher{c: c, reqID: 7}

	ev := protean.Event{Kind: protean.EventJobDone, Label: "x"}
	w.sendEvent(1, ev) // fills the depth-1 queue
	w.sendEvent(1, ev) // shed
	w.sendEvent(1, ev) // shed
	if d := w.dropped.Load(); d != 2 {
		t.Fatalf("dropped %d, want 2", d)
	}

	// Drain the queued event frame, making room for exactly one frame:
	// the gap marker must take it, and the event itself is shed again.
	frame := <-c.q
	if _, m, err := wire.DecodeMessage(frame); err != nil {
		t.Fatal(err)
	} else if _, isEvent := m.(wire.Event); !isEvent {
		t.Fatalf("first frame %T, want Event", m)
	}
	w.sendEvent(1, ev)
	frame = <-c.q
	_, m, err := wire.DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	gap, isGap := m.(wire.EventGap)
	if !isGap {
		t.Fatalf("frame after overflow %T, want EventGap", m)
	}
	if gap.Dropped != 2 || gap.Job != 1 {
		t.Fatalf("gap %+v, want Dropped 2 Job 1", gap)
	}
	if d := w.dropped.Load(); d != 1 {
		t.Fatalf("dropped after gap %d, want 1 (the event shed behind the gap)", d)
	}
	if got := srv.mDropped.Value(); got != 3 {
		t.Fatalf("proteand_events_dropped_total %d, want 3", got)
	}

	// At depth 1 the gap marker itself occupies the slot, so the next
	// send re-announces the remaining drop and sheds its own event.
	w.sendEvent(1, ev)
	if _, m, _ := wire.DecodeMessage(<-c.q); m.(wire.EventGap).Dropped != 1 {
		t.Fatalf("second gap %+v", m)
	}
	// Once the reader drains the final gap with no event racing it, the
	// stream is caught up and events flow again.
	if !w.flushGap(1) {
		t.Fatal("flushGap failed with queue space available")
	}
	if _, m, _ := wire.DecodeMessage(<-c.q); m.(wire.EventGap).Dropped != 1 {
		t.Fatalf("final gap %+v", m)
	}
	w.sendEvent(1, ev)
	if _, m, _ := wire.DecodeMessage(<-c.q); m.(wire.Event).Ev.Label != "x" {
		t.Fatalf("caught-up frame %+v", m)
	}
	if d := w.dropped.Load(); d != 0 {
		t.Fatalf("dropped after catch-up %d, want 0", d)
	}
}

func TestDaemonDrain(t *testing.T) {
	srv, addr := startTestServer(t, Config{})
	c := dialTest(t, addr)
	job, err := c.Submit(tinySpec(t, 31, 1))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.Watch(job, nil, nil); err != nil || done.State != wire.StateDone {
		t.Fatalf("watch: %+v, %v", done, err)
	}
	srv.Shutdown()
	// Draining: new submissions are rejected at the job table...
	if _, err := srv.startJob(protean.Scenario{}); err != ErrShutdown {
		t.Errorf("startJob while draining: %v", err)
	}
	// ...the connection has been closed out gracefully...
	if _, err := c.Status(job); err == nil {
		t.Error("status on drained connection succeeded")
	}
	// ...and new connections are refused.
	if _, err := Dial("tcp", addr); err == nil {
		t.Error("dial of drained server succeeded")
	}
	// Shutdown is idempotent.
	srv.Shutdown()
}

// TestDaemonSoak drives hundreds of concurrent submitters — each with
// its own connection — against one daemon: every job id is unique,
// every non-canceled submitter retrieves exactly its own result
// (byte-identical to the in-process run of the same spec), and
// cancels are honored. PROTEAND_SOAK_SUBMITTERS overrides the
// submitter count (CI's race-enabled examples job runs a reduced
// soak).
func TestDaemonSoak(t *testing.T) {
	submitters := 200
	if s := os.Getenv("PROTEAND_SOAK_SUBMITTERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("PROTEAND_SOAK_SUBMITTERS=%q", s)
		}
		submitters = n
	}
	const variants = 3
	_, addr := startTestServer(t, Config{MaxActive: 8, QueueDepth: 16})

	// One expected JSON per spec variant: seeds are shared within a
	// variant, so every submitter of that variant must retrieve this
	// exact result.
	want := make([][]byte, variants)
	specs := make([][]byte, variants)
	for v := 0; v < variants; v++ {
		specs[v] = tinySpec(t, int64(40+v), v+1)
		sc, err := protean.LoadScenario(specs[v])
		if err != nil {
			t.Fatal(err)
		}
		fr, err := protean.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		want[v], err = json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct {
		job      uint64
		state    string
		result   []byte
		canceled bool
		err      error
	}
	outcomes := make([]outcome, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outcomes[i]
			c, err := Dial("tcp", addr)
			if err != nil {
				o.err = err
				return
			}
			defer c.Close()
			v := i % variants
			job, err := c.Submit(specs[v])
			if err != nil {
				o.err = err
				return
			}
			o.job = job
			if i%10 == 9 {
				// Cancel path: the job may already have finished — both
				// outcomes are legal, but they must be consistent.
				canceled, err := c.Cancel(job)
				if err != nil {
					o.err = err
					return
				}
				o.canceled = canceled
			}
			mode := i % 3
			switch mode {
			case 0: // watch to completion
				done, err := c.Watch(job, nil, nil)
				if err != nil {
					o.err = err
					return
				}
				o.state = done.State
			default: // poll status to completion
				for {
					st, err := c.Status(job)
					if err != nil {
						o.err = err
						return
					}
					if st.State != wire.StateRunning {
						o.state = st.State
						break
					}
				}
			}
			if o.state == wire.StateDone {
				fr, err := c.Result(job)
				if err != nil {
					o.err = err
					return
				}
				o.result, o.err = json.Marshal(fr)
			}
		}(i)
	}
	wg.Wait()

	seen := make(map[uint64]int, submitters)
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("submitter %d: %v", i, o.err)
		}
		if prev, dup := seen[o.job]; dup {
			t.Fatalf("job id %d assigned to submitters %d and %d", o.job, prev, i)
		}
		seen[o.job] = i
		switch o.state {
		case wire.StateDone:
			if o.canceled {
				t.Errorf("submitter %d: cancel acknowledged but job finished done", i)
			}
			if !bytes.Equal(o.result, want[i%variants]) {
				t.Errorf("submitter %d: result differs from in-process run of its spec", i)
			}
		case wire.StateCanceled:
			if !o.canceled {
				t.Errorf("submitter %d: job canceled without an acknowledged cancel", i)
			}
		default:
			t.Errorf("submitter %d: job finished as %q", i, o.state)
		}
	}
	if len(seen) != submitters {
		t.Fatalf("%d unique job ids for %d submitters", len(seen), submitters)
	}
}

// BenchmarkDaemonSubmitThroughput measures submission round-trips per
// second over loopback TCP against a live daemon running real (tiny)
// scenario jobs; the drain happens off the clock.
func BenchmarkDaemonSubmitThroughput(b *testing.B) {
	srv, addr := startTestServer(b, Config{MaxActive: 4})
	c := dialTest(b, addr)
	spec := tinySpec(b, 51, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submits/s")
	srv.jobWG.Wait()
}
