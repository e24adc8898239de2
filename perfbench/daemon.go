package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"protean"
	"protean/internal/server"
	"protean/internal/wire"
)

// The daemon workload starts proteand as its own process on a unix
// socket and drives it with an open loop of small scenario submits at a
// fixed Poisson rate from one submitting and one polling connection.
// Completion is found by Status polling; each result is then fetched.

// digestSpecs is how many leading fresh specs the pinned digest covers;
// every run completes all of them.
const digestSpecs = 16

// specBytes renders a scenario as the canonical JSON Scenario.MarshalJSON
// produces, without resolving it: the daemon, not the load generator,
// pays for resolution.
func specBytes(sc protean.Scenario) ([]byte, error) {
	type plain protean.Scenario
	return json.Marshal(plain(sc))
}

// daemonProc is a running daemon process.
type daemonProc struct {
	cmd    *exec.Cmd
	socket string
	done   chan struct{} // closed when stderr reaches EOF

	mu   sync.Mutex
	gcs  []gcLine
	tail []string
}

// gcLine is one GODEBUG=gctrace=1 report of the daemon's collector.
type gcLine struct {
	at          time.Time
	startMB     float64 // heap at the start of the cycle
	liveMB      float64 // heap marked live
	pauseMillis float64 // stop-the-world pauses
}

var gcTraceRE = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock, .* (\d+)->(\d+)->(\d+) MB`)

func parseGCLine(line string, at time.Time) (gcLine, bool) {
	m := gcTraceRE.FindStringSubmatch(line)
	if m == nil {
		return gcLine{}, false
	}
	f := func(i int) float64 {
		v, _ := strconv.ParseFloat(m[i], 64) // the pattern admits only numbers
		return v
	}
	return gcLine{at: at, startMB: f(3), liveMB: f(5), pauseMillis: f(1) + f(2)}, true
}

// startDaemon starts a daemon process with its collector trace on
// stderr.
func startDaemon(bin string, args []string, socket string) (*daemonProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, socket: socket, done: make(chan struct{})}
	go d.readStderr(stderr)
	return d, nil
}

func (d *daemonProc) readStderr(r io.Reader) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		gl, ok := parseGCLine(line, time.Now())
		d.mu.Lock()
		if ok {
			d.gcs = append(d.gcs, gl)
		} else if d.tail = append(d.tail, line); len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

// dial connects and handshakes, retrying until the daemon listens.
func (d *daemonProc) dial(deadline time.Time) (*server.Client, error) {
	for {
		c, err := server.Dial("unix", d.socket)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not ready: %w (stderr: %q)", err, d.stderrTail())
		}
		time.Sleep(250 * time.Microsecond)
	}
}

func (d *daemonProc) stderrTail() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.tail...)
}

// gcBetween sums the daemon's allocation and collector work reported
// between a and b. Allocation between two collections is the heap at
// the start of the later one minus what the earlier one left live.
func (d *daemonProc) gcBetween(a, b time.Time) (allocMB float64, count int, pauseMillis float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, g := range d.gcs {
		if g.at.Before(a) || g.at.After(b) {
			continue
		}
		prevLive := 0.0
		if i > 0 {
			prevLive = d.gcs[i-1].liveMB
		}
		allocMB += g.startMB - prevLive
		count++
		pauseMillis += g.pauseMillis
	}
	return allocMB, count, pauseMillis
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		<-d.done
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			// A daemon stopped right after its handshake may not have
			// installed its signal handler yet; SIGTERM then ends it
			// directly, which is still the stop that was asked for.
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		<-d.done
		return fmt.Errorf("daemon did not drain within 30s")
	}
}

// startMeasured starts the daemon the given number of times, each until
// the handshake completes, and keeps the last one running. It returns
// the median start-to-handshake time.
func startMeasured(bin string, args []string, socket string, setups int) (*daemonProc, float64, error) {
	var s samples
	var t0 time.Time
	for i := range setups {
		time.Sleep(time.Until(t0.Add(setupGap)))
		t0 = time.Now()
		p, err := startDaemon(bin, args, socket)
		if err != nil {
			return nil, 0, err
		}
		c, err := p.dial(t0.Add(20 * time.Second))
		if err != nil {
			p.stop()
			return nil, 0, err
		}
		s = append(s, time.Since(t0).Seconds())
		c.Close()
		if i == setups-1 {
			return p, s.median(), nil
		}
		if err := p.stop(); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, fmt.Errorf("no daemon set-ups requested")
}

// loadOut is what one pass of the open loop measured.
type loadOut struct {
	start, end time.Time
	fresh      samples // ms, due until the result was fetched
	repeat     samples
	rpc        samples // us, Status round-trips
	lag        samples // ms, submit sent after it was due
	goodJobs   int
	doneJobs   int
	cycles     uint64
	results    []*protean.Result
	digest     string
	encBytes   int
	encTime    time.Duration
	decTime    time.Duration
	attempted  int
	failed     int
	errs       []string
	dropped    float64
	cpu        time.Duration
	rssMB      float64
	allocMB    float64
	gcCount    int
	gcPauseMS  float64
}

type pendingJob struct {
	idx  int // schedule index
	job  uint64
	due  time.Time
	root int
}

// runLoad plays the schedule against the daemon at socket.
func runLoad(p *daemonProc, sched []submit, specs [][]byte, limit time.Duration, rec *recorder, timeWire bool) (*loadOut, error) {
	sub, err := p.dial(time.Now().Add(5 * time.Second))
	if err != nil {
		return nil, err
	}
	pollc, err := p.dial(time.Now().Add(5 * time.Second))
	if err != nil {
		return nil, err
	}
	defer pollc.Close()
	pid := p.cmd.Process.Pid
	cpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}

	out := &loadOut{attempted: len(sched)}
	var mu sync.Mutex // guards out.lag, out.failed and out.errs against the submitter
	failf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		out.failed++
		out.errs = append(out.errs, fmt.Sprintf(format, args...))
	}
	out.start = time.Now()
	pending := make(chan pendingJob, len(sched)) // one slot per submit: the submitter never blocks on it
	quit, submitted := make(chan struct{}), make(chan struct{})
	// Closing the connection unblocks a Submit in flight, so the
	// submitter has always stopped when runLoad returns.
	defer func() {
		close(quit)
		sub.Close()
		<-submitted
	}()
	go func() {
		defer close(submitted)
		defer close(pending)
		for i, s := range sched {
			due := out.start.Add(s.Due)
			select {
			case <-quit:
				return
			case <-time.After(time.Until(due)):
			}
			root := rec.begin("request", 0, i)
			t := time.Now()
			id, err := sub.Submit(specs[s.Spec])
			rec.add("server.submit", root, i, t, time.Now())
			mu.Lock()
			out.lag = append(out.lag, ms(t.Sub(due)))
			mu.Unlock()
			if err != nil {
				rec.end(root)
				failf("submit %d: %v", i, err)
				continue
			}
			pending <- pendingJob{idx: i, job: id, due: due, root: root}
		}
	}()

	firstJSON := map[int][]byte{}
	digests := make([][32]byte, digestSpecs)
	deadline := out.start.Add(sched[len(sched)-1].Due + 120*time.Second)
	// finish fetches and checks a finished job's result.
	finish := func(pj pendingJob, t2 time.Time) {
		fr, err := pollc.Result(pj.job)
		t3 := time.Now()
		rec.add("server.result", pj.root, pj.idx, t2, t3)
		rec.end(pj.root)
		if err != nil {
			failf("result of submit %d: %v", pj.idx, err)
			return
		}
		lat := t3.Sub(pj.due)
		s := sched[pj.idx]
		b, err := fr.MarshalJSON()
		switch {
		case err != nil:
			failf("submit %d: render result: %v", pj.idx, err)
			return
		case fr.Err() != nil:
			failf("submit %d: %v", pj.idx, fr.Err())
			return
		}
		if prev, ok := firstJSON[s.Spec]; !ok {
			firstJSON[s.Spec] = b
		} else if !bytes.Equal(prev, b) {
			failf("submit %d resends spec %d but its result differs", pj.idx, s.Spec)
			return
		}
		if s.Spec < digestSpecs {
			digests[s.Spec] = sha256.Sum256(b)
		}
		if timeWire {
			te := time.Now()
			frame := wire.EncodeMessage(pj.job, wire.ResultOK{Job: pj.job, Fleet: fr})
			td := time.Now()
			if _, _, err := wire.DecodeMessage(frame); err != nil {
				failf("submit %d: decode result frame: %v", pj.idx, err)
				return
			}
			out.encTime += td.Sub(te)
			out.decTime += time.Since(td)
			out.encBytes += len(frame)
		}
		if s.Resend {
			out.repeat = append(out.repeat, ms(lat))
		} else {
			out.fresh = append(out.fresh, ms(lat))
		}
		out.doneJobs += len(fr.Jobs)
		if lat <= limit {
			out.goodJobs += len(fr.Jobs)
		}
		for _, j := range fr.Jobs {
			if j.Run != nil {
				out.cycles += j.Run.Cycles
				out.results = append(out.results, j.Run)
			}
		}
	}

	var waiting []pendingJob
	var lastDone uint64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	open := true
	for next := 0; open || len(waiting) > 0; next++ {
		<-tick.C
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon load: %d jobs unfinished at the deadline", len(waiting))
		}
	drain:
		for open {
			select {
			case pj, ok := <-pending:
				if !ok {
					open = false
					break drain
				}
				waiting = append(waiting, pj)
			default:
				break drain
			}
		}
		// One Status round-trip per tick, to each pending job in turn or,
		// with none pending, to the last finished one, so that the
		// round-trips sample busy and idle time alike.
		k, probe := -1, lastDone
		if len(waiting) > 0 {
			k = next % len(waiting)
			probe = waiting[k].job
		}
		if probe == 0 {
			continue
		}
		t := time.Now()
		st, err := pollc.Status(probe)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("status of job %d: %w", probe, err)
		}
		out.rpc = append(out.rpc, us(t2.Sub(t)))
		if k < 0 {
			continue
		}
		pj := waiting[k]
		rec.add("server.status", pj.root, pj.idx, t, t2)
		switch st.State {
		case wire.StateDone:
			waiting = slices.Delete(waiting, k, k+1)
			lastDone = pj.job
			finish(pj, t2)
		case wire.StateFailed, wire.StateCanceled:
			waiting = slices.Delete(waiting, k, k+1)
			rec.end(pj.root)
			failf("submit %d: job %s: %s", pj.idx, st.State, st.Err)
		}
	}
	out.end = time.Now()

	h := sha256.New()
	for _, d := range digests {
		h.Write(d[:])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	snap, err := pollc.Metrics()
	if err != nil {
		return nil, err
	}
	for _, mp := range snap.Metrics {
		if mp.Name == "proteand_events_dropped_total" {
			out.dropped = float64(mp.Value)
		}
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	if out.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	out.allocMB, out.gcCount, out.gcPauseMS = p.gcBetween(out.start, out.end)
	return out, nil
}

// daemonInputs generates the schedule and the canonical bytes of every
// fresh spec.
func daemonInputs(o options) ([]submit, [][]byte, error) {
	n := int(math.Round(o.rate * o.seconds))
	if n < digestSpecs*daemonResendEv {
		return nil, nil, fmt.Errorf("daemon: %d submits (rate %g for %gs) is fewer than the %d the checks need", n, o.rate, o.seconds, digestSpecs*daemonResendEv)
	}
	sched, fresh := daemonSchedule(o.seed, n, o.rate)
	scs, err := daemonSpecs(o.seed, fresh)
	if err != nil {
		return nil, nil, err
	}
	specs := make([][]byte, len(scs))
	for i, sc := range scs {
		if specs[i], err = specBytes(sc); err != nil {
			return nil, nil, err
		}
	}
	return sched, specs, nil
}

func daemonArgs(socket string) []string {
	return []string{"-unix", socket, "-max-active", strconv.Itoa(runtime.NumCPU())}
}

func runDaemon(o options) (*report, error) {
	if o.proteand == "" {
		return nil, fmt.Errorf("daemon workload needs -proteand")
	}
	sched, specs, err := daemonInputs(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	socket := filepath.Join(o.outDir, "proteand.sock")
	if o.trace {
		return traceDaemon(o, sched, specs, socket, rep)
	}
	p, setup, err := startMeasured(o.proteand, daemonArgs(socket), socket, o.setups())
	if err != nil {
		return nil, err
	}
	lo, err := runLoad(p, sched, specs, o.latencyLimit, nil, false)
	if serr := p.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop proteand: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	addLoad(rep, lo)
	wall := lo.end.Sub(lo.start).Seconds()
	m := rep.metrics
	m["setup_s"] = setup
	m["sim_mcycles_per_s"] = float64(lo.cycles) / wall / 1e6
	m["jobs_per_s"] = float64(lo.doneJobs) / wall
	m["goodput_jobs_per_s"] = float64(lo.goodJobs) / wall
	m["alloc_mb"] = lo.allocMB
	m["cpu_ms_per_job"] = ms(lo.cpu) / float64(lo.doneJobs)
	m["peak_rss_mb"] = lo.rssMB
	rep.setPct("job_p50_ms", lo.fresh, 50)
	rep.setPct("job_p95_ms", lo.fresh, 95)
	rep.setPct("repeat_job_p50_ms", lo.repeat, 50)
	rep.setPct("rpc_p50_us", lo.rpc, 50)
	rep.setPct("rpc_p99_us", lo.rpc, 99)
	resent := 0
	for _, s := range sched {
		if s.Resend {
			resent++
		}
	}
	rep.note("%d submits at %g/s, %d resends (%.3f of submits); %d collections in the daemon", len(sched), o.rate, resent, float64(resent)/float64(len(sched)), lo.gcCount)
	return rep, nil
}

// addLoad counts a load pass's outcomes into rep.
func addLoad(rep *report, lo *loadOut) {
	rep.attempted += lo.attempted
	rep.failed += lo.failed
	rep.errs = append(rep.errs, lo.errs...)
	if rep.digest == "" {
		rep.digest = lo.digest
	} else if rep.digest != lo.digest {
		rep.failed++
		rep.fail("daemon digest %s differs between passes (%s)", lo.digest, rep.digest)
	}
}

// traceDaemon plays the schedule against proteand, then against this
// program hosting the same server package under a CPU profile with
// spans recorded, and reports the per-layer metrics of the second.
func traceDaemon(o options, sched []submit, specs [][]byte, socket string, rep *report) (*report, error) {
	initPerLayer(rep)
	plain, err := playOnce(o.proteand, daemonArgs(socket), socket, sched, specs, o, nil, false)
	if err != nil {
		return nil, err
	}
	addLoad(rep, plain)

	rec := newRecorder()
	args := append([]string{"-serve", "-cpuprofile", profilePath(o)}, daemonArgs(socket)...)
	lo, err := playOnce(o.self, args, socket, sched, specs, o, rec, true)
	if err != nil {
		return nil, err
	}
	addLoad(rep, lo)
	setModeled(rep, lo.results)
	wall := lo.end.Sub(lo.start)
	m := rep.metrics
	rep.setPct("server.submit_rtt_us.p50", rec.durations("server.submit").scale(1e6), 50)
	rep.setPct("server.result_rtt_ms.p50", rec.durations("server.result").scale(1e3), 50)
	m["wire.encode_mb_per_s"] = ratio(float64(lo.encBytes)/(1<<20), lo.encTime.Seconds())
	m["wire.decode_mb_per_s"] = ratio(float64(lo.encBytes)/(1<<20), lo.decTime.Seconds())
	m["daemon.cpu_util"] = lo.cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	m["server.events_dropped"] = lo.dropped
	rep.setPct("loadgen.lag_ms.p95", lo.lag, 95)
	m["gc.count"] = float64(lo.gcCount)
	m["gc.pause_ms"] = lo.gcPauseMS
	// The open loop fixes both passes' wall time at the schedule's
	// length, so the overhead is the daemon's CPU time, traced over
	// untraced.
	m["trace.overhead_x"] = ratio(lo.cpu.Seconds(), plain.cpu.Seconds())
	if err := setCPUShares(context.Background(), rep, profilePath(o)); err != nil {
		return nil, err
	}
	if err := setSelfTimes(rep, o, rec); err != nil {
		return nil, err
	}
	return rep, nil
}

// playOnce starts a daemon, plays the schedule against it and stops it.
func playOnce(bin string, args []string, socket string, sched []submit, specs [][]byte, o options, rec *recorder, timeWire bool) (*loadOut, error) {
	p, err := startDaemon(bin, args, socket)
	if err != nil {
		return nil, err
	}
	lo, err := runLoad(p, sched, specs, o.latencyLimit, rec, timeWire)
	if serr := p.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop daemon: %w", serr)
	}
	return lo, err
}

// serveDaemon hosts the daemon's server package on a unix socket until
// SIGTERM, with a CPU profile of the whole process, so the traced run
// can attribute the daemon's CPU to modules. It is proteand's main with
// a profile around it.
func serveDaemon(socket string, maxActive int, cpuprofile string) error {
	stopProfile, err := profileIn(cpuprofile)
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	srv := server.New(server.Config{Name: "perfbench", MaxActive: maxActive})
	os.Remove(socket)
	l, err := net.Listen("unix", socket)
	if err != nil {
		stopProfile()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	<-sigc
	srv.Shutdown()
	serr := <-served
	os.Remove(socket)
	if err := stopProfile(); err != nil {
		return err
	}
	if serr != nil && serr != server.ErrShutdown {
		return serr
	}
	return nil
}
