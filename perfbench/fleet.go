package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"protean"
)

// The fleet-wide workload runs one scenario at the node cap through
// protean.Start, replays it under the placements of fleetPolicies, and
// renders every FleetResult as JSON. Iterations repeat the same
// scenario; the first is fresh, later ones are repeats.

// fleetMinIters is the fewest iterations a timed run makes. An
// iteration takes about 14 s on one core of the reference host, so at
// least 3 keeps the run's iteration count, and which rank its median
// is, from hanging on whether two iterations fit in --seconds.
const fleetMinIters = 3

// warmFleet is the workload's set-up: it validates the scenario, which
// builds every job template, and spawns each job identity once so that
// the assembly caches are warm too.
func warmFleet(sc protean.Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	seen := map[protean.JobSpec]bool{}
	for _, js := range sc.Jobs {
		js.Count = 0
		if seen[js] {
			continue
		}
		seen[js] = true
		s, err := protean.New(protean.WithScale(sc.Nodes[0].Session.Scale))
		if err != nil {
			return err
		}
		if _, err := s.Spawn(js.Workload, max(js.Instances, 1), js.Items); err != nil {
			return err
		}
	}
	return nil
}

// fleetSink records when each progress event arrived.
type fleetSink struct {
	mu       sync.Mutex
	jobDone  []time.Time
	jobOK    int
	fleetEnd []time.Time
}

func (s *fleetSink) Event(e protean.Event) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case protean.EventJobDone:
		s.jobDone = append(s.jobDone, now)
		if e.OK {
			s.jobOK++
		}
	case protean.EventFleetDone:
		s.fleetEnd = append(s.fleetEnd, now)
	}
}

// fleetOut is one iteration of the fleet-wide workload.
type fleetOut struct {
	wall      time.Duration
	resolve   time.Duration // Start until it returned
	execute   time.Duration // Start returning until the last EventJobDone
	replay    []time.Duration
	marshal   time.Duration
	jsonBytes int
	cpu       time.Duration // this process's CPU time
	alloc     uint64
	jobs      int
	okJobs    int
	cycles    uint64
	digest    string
	first     *protean.FleetResult
	policies  []*protean.FleetResult // Nodes and Jobs dropped
	errs      []string
}

func placements() ([]protean.PlacementPolicy, error) {
	var pols []protean.PlacementPolicy
	for _, name := range fleetPolicies {
		p, err := protean.ParsePlacement(name)
		if err != nil {
			return nil, err
		}
		pols = append(pols, p)
	}
	return pols, nil
}

// fleetIteration runs the scenario once, recording a span around each
// phase; progress events mark where Execute and each Replay end.
func fleetIteration(ctx context.Context, sc protean.Scenario, pols []protean.PlacementPolicy, rec *recorder, iter int) (fleetOut, error) {
	var out fleetOut
	sink := &fleetSink{jobDone: make([]time.Time, 0, fleetJobCount(sc)*2)}
	// Every iteration starts from a collected heap, so that the garbage
	// and pacing of the previous one do not carry over.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := selfCPU()
	root := rec.begin("fleet", 0, iter)
	t0 := time.Now()
	r, err := protean.Start(ctx, sc, protean.WithRunProgress(sink), protean.WithRunPlacements(pols...))
	t1 := time.Now()
	rec.add("spec.resolve", root, iter, t0, t1)
	if err != nil {
		return out, err
	}
	frs, err := r.WaitAll()
	if err != nil {
		return out, err
	}
	sink.mu.Lock()
	jobDone, fleetEnd, jobOK := sink.jobDone, sink.fleetEnd, sink.jobOK
	sink.mu.Unlock()
	if len(fleetEnd) != len(pols) || len(jobDone) == 0 {
		return out, fmt.Errorf("progress: %d job events, %d fleet events for %d policies", len(jobDone), len(fleetEnd), len(pols))
	}
	execEnd := jobDone[len(jobDone)-1]
	rec.add("cluster.execute", root, iter, t1, execEnd)
	prev := execEnd
	for _, end := range fleetEnd {
		rec.add("cluster.replay", root, iter, prev, end)
		out.replay = append(out.replay, end.Sub(prev))
		prev = end
	}
	h := sha256.New()
	tm := time.Now()
	for _, fr := range frs {
		b, err := fr.MarshalJSON()
		if err != nil {
			return out, err
		}
		out.jsonBytes += len(b)
		h.Write(b)
	}
	t2 := time.Now()
	rec.add("result.marshal", root, iter, tm, t2)
	rec.end(root)
	out.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&after)

	out.wall, out.resolve, out.execute, out.marshal = t2.Sub(t0), t1.Sub(t0), execEnd.Sub(t1), t2.Sub(tm)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	out.first = frs[0]
	out.jobs = len(frs[0].Jobs)
	if jobOK != len(jobDone) {
		out.errs = append(out.errs, fmt.Sprintf("%d of %d job executions failed verification", len(jobDone)-jobOK, len(jobDone)))
	}
	for pi, fr := range frs {
		if err := fr.Err(); err != nil {
			out.errs = append(out.errs, fmt.Sprintf("%s: %v", fleetPolicies[pi], err))
		}
		totals := *fr
		totals.Nodes, totals.Jobs = nil, nil
		out.policies = append(out.policies, &totals)
	}
	for _, j := range frs[0].Jobs {
		if j.Shed || j.Run == nil || j.Run.Err() != nil {
			continue
		}
		out.okJobs++
		out.cycles += j.Run.Cycles
	}
	return out, nil
}

// checkIteration counts an iteration into rep and compares its output
// with the first iteration's.
func checkIteration(rep *report, it fleetOut, first *fleetOut) {
	rep.attempted += it.jobs
	rep.failed += it.jobs - it.okJobs
	for _, e := range it.errs {
		rep.fail("%s", e)
	}
	if first != nil && it.digest != first.digest {
		rep.failed += it.jobs
		rep.fail("FleetResult JSON digest %s differs from the first iteration's %s", it.digest, first.digest)
	}
}

func (o options) fleetSize() fleetSize {
	if o.tiny {
		return fleetTiny
	}
	return fleetFull
}

func runFleet(o options) (*report, error) {
	sc := fleetScenario(o.seed, o.fleetSize())
	rep := newReport()
	if !o.trace {
		setup, err := measureSetup(o)
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = setup
	}
	if err := warmFleet(sc); err != nil {
		return nil, fmt.Errorf("fleet-wide set-up: %w", err)
	}
	pols, err := placements()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if o.trace {
		return traceFleet(ctx, o, sc, pols, rep)
	}

	var iters []fleetOut
	start := time.Now()
	for len(iters) < fleetMinIters || time.Since(start).Seconds() < o.seconds {
		it, err := fleetIteration(ctx, sc, pols, nil, len(iters))
		if err != nil {
			return nil, err
		}
		var first *fleetOut
		if len(iters) > 0 {
			first = &iters[0]
		}
		checkIteration(rep, it, first)
		it.first = nil // keep one iteration's results alive at a time
		iters = append(iters, it)
	}
	rep.digest = iters[0].digest

	var jps, mcps, alloc, cpu samples
	for _, it := range iters {
		w := it.wall.Seconds()
		jps = append(jps, float64(it.jobs)/w)
		mcps = append(mcps, float64(it.cycles)/w/1e6)
		alloc = append(alloc, float64(it.alloc)/(1<<20))
		cpu = append(cpu, ms(it.cpu)/float64(it.jobs))
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m["jobs_per_s"] = jps.median()
	m["sim_mcycles_per_s"] = mcps.median()
	m["alloc_mb"] = alloc.median()
	m["cpu_ms_per_job"] = cpu.median()
	m["peak_rss_mb"] = rss
	dup := 1 - 5.0/float64(fleetJobCount(sc))
	rep.note("%d iterations of %d jobs on %d nodes; %.4f of jobs duplicate another", len(iters), fleetJobCount(sc), o.fleetSize().nodes, dup)
	return rep, nil
}

// traceFleet runs one iteration untraced and one traced, and reports
// the per-layer metrics of the traced one.
func traceFleet(ctx context.Context, o options, sc protean.Scenario, pols []protean.PlacementPolicy, rep *report) (*report, error) {
	initPerLayer(rep)
	plain, err := fleetIteration(ctx, sc, pols, nil, 0)
	if err != nil {
		return nil, err
	}
	checkIteration(rep, plain, nil)
	plain.first = nil

	rec := newRecorder()
	stopProfile, err := profileIn(profilePath(o))
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	it, err := fleetIteration(ctx, sc, pols, rec, 1)
	gc1 := readGC()
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	checkIteration(rep, it, &plain)
	rep.digest = it.digest

	var results []*protean.Result
	for _, j := range it.first.Jobs {
		if j.Run != nil {
			results = append(results, j.Run)
		}
	}
	setModeled(rep, results)
	m := rep.metrics
	m["spec.resolve_ms"] = ms(it.resolve)
	m["cluster.execute_s"] = it.execute.Seconds()
	m["cluster.execute_ms_per_job"] = ms(it.execute) / float64(it.jobs)
	m["result.marshal_s"] = it.marshal.Seconds()
	m["result.json_mb"] = float64(it.jsonBytes) / (1 << 20)
	m["trace.overhead_x"] = it.wall.Seconds() / plain.wall.Seconds()
	setGC(rep, gc0, gc1)
	for i, fr := range it.policies {
		p := fleetPolicies[i]
		m["cluster.replay_s."+p] = it.replay[i].Seconds()
		m["fleet.warm_hit_ratio."+p] = ratio(float64(fr.WarmHits), float64(fr.WarmHits+fr.ColdLoads))
		m["fleet.deferred."+p] = float64(fr.Deferred)
		m["fleet.makespan_cycles."+p] = float64(fr.Makespan)
	}
	if err := setCPUShares(ctx, rep, profilePath(o)); err != nil {
		return nil, err
	}
	if err := setSelfTimes(rep, o, rec); err != nil {
		return nil, err
	}
	return rep, nil
}
