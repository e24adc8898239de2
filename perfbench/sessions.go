package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"protean"
)

// The sessions workload runs the cells of sessionCells on GOMAXPROCS
// goroutines (one: see inProcessProcs) through protean.New, Spawn and
// Run, pass after pass. Every pass repeats the first byte for byte.

// cellOut is one executed cell.
type cellOut struct {
	res    *protean.Result
	digest [32]byte
	runD   time.Duration
	err    error
}

// warmSessions is the workload's set-up: building and spawning every
// cell once fills the process-wide template, assembly and circuit
// caches.
func warmSessions(cells []cell) error {
	for _, c := range cells {
		s, err := protean.New(c.options()...)
		if err != nil {
			return err
		}
		if _, err := s.Spawn(c.Workload, c.Instances, c.Items); err != nil {
			return err
		}
	}
	return nil
}

// runCell executes one cell, recording a span per facade call.
func runCell(ctx context.Context, c cell, rec *recorder, req int) cellOut {
	var out cellOut
	root := rec.begin("session", 0, req)
	defer rec.end(root)
	t0 := time.Now()
	s, err := protean.New(c.options()...)
	t1 := time.Now()
	rec.add("session.new", root, req, t0, t1)
	if err != nil {
		out.err = err
		return out
	}
	_, err = s.Spawn(c.Workload, c.Instances, c.Items)
	t2 := time.Now()
	rec.add("session.spawn", root, req, t1, t2)
	if err != nil {
		out.err = err
		return out
	}
	res, err := s.Run(ctx)
	t3 := time.Now()
	rec.add("session.run", root, req, t2, t3)
	out.runD = t3.Sub(t2)
	if err != nil {
		out.err = err
		return out
	}
	if err := res.Err(); err != nil {
		out.err = err
		return out
	}
	b, err := json.Marshal(res)
	if err != nil {
		out.err = err
		return out
	}
	out.res, out.digest = res, sha256.Sum256(b)
	return out
}

// passOut is one pass over every cell.
type passOut struct {
	cells []cellOut
	wall  time.Duration
	cpu   time.Duration // this process's CPU time
	alloc uint64
}

// runPass executes every cell once on workers goroutines, largest
// first.
func runPass(ctx context.Context, cells []cell, workers int, rec *recorder, pass int) passOut {
	out := passOut{cells: make([]cellOut, len(cells))}
	// Every pass starts from a collected heap, so that the garbage and
	// pacing of the previous one do not carry over.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := selfCPU()
	t0 := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out.cells[i] = runCell(ctx, cells[i], rec, pass*len(cells)+i)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	out.wall = time.Since(t0)
	out.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	return out
}

// checkPass counts the pass's cells into rep and compares each result
// with the first pass's.
func checkPass(rep *report, cells []cell, p passOut, first *passOut) {
	for i, co := range p.cells {
		rep.attempted++
		switch {
		case co.err != nil:
			rep.failed++
			rep.fail("cell %d (%s x%d): %v", i, cells[i].Workload, cells[i].Instances, co.err)
		case first != nil && first.cells[i].err == nil && co.digest != first.cells[i].digest:
			rep.failed++
			rep.fail("cell %d (%s x%d): result differs from the first pass", i, cells[i].Workload, cells[i].Instances)
		}
	}
}

// sessionsDigest hashes the first pass's results in cell order.
func sessionsDigest(p passOut) string {
	h := sha256.New()
	for _, co := range p.cells {
		h.Write(co.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cells returns the sessions workload's cells; the smoke test's tiny
// size keeps the cheapest few.
func (o options) cells() []cell {
	cells := sessionCells(o.seed)
	if o.tiny {
		cells = cells[len(cells)-10:]
	}
	return cells
}

func runSessions(o options) (*report, error) {
	cells := o.cells()
	rep := newReport()
	workers := runtime.GOMAXPROCS(0)
	if !o.trace {
		setup, err := measureSetup(o)
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = setup
	}
	if err := warmSessions(cells); err != nil {
		return nil, fmt.Errorf("sessions set-up: %w", err)
	}
	ctx := context.Background()
	if o.trace {
		return traceSessions(ctx, o, cells, workers, rep)
	}

	var passes []passOut
	start := time.Now()
	for len(passes) < 2 || time.Since(start).Seconds() < o.seconds {
		p := runPass(ctx, cells, workers, nil, len(passes))
		var first *passOut
		if len(passes) > 0 {
			first = &passes[0]
		}
		checkPass(rep, cells, p, first)
		passes = append(passes, p)
	}
	rep.digest = sessionsDigest(passes[0])

	var mcps, jps, alloc, cpu samples
	for _, p := range passes {
		var cycles float64
		for _, co := range p.cells {
			if co.err == nil {
				cycles += float64(co.res.Cycles)
			}
		}
		w := p.wall.Seconds()
		mcps = append(mcps, cycles/w/1e6)
		jps = append(jps, float64(len(p.cells))/w)
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		cpu = append(cpu, ms(p.cpu)/float64(len(p.cells)))
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	m["sim_mcycles_per_s"] = mcps.median()
	m["jobs_per_s"] = jps.median()
	m["alloc_mb"] = alloc.median()
	m["cpu_ms_per_job"] = cpu.median()
	m["peak_rss_mb"] = rss
	rep.note("%d passes of %d cells", len(passes), len(cells))
	return rep, nil
}

// tracedPasses is how many passes each half of the traced run makes.
const tracedPasses = 2

// traceSessions runs tracedPasses passes untraced, then the same passes
// with spans and a CPU profile, and reports the per-layer metrics of
// the traced half.
func traceSessions(ctx context.Context, o options, cells []cell, workers int, rep *report) (*report, error) {
	initPerLayer(rep)
	t0 := time.Now()
	var first passOut
	for i := range tracedPasses {
		p := runPass(ctx, cells, workers, nil, i)
		if i == 0 {
			first = p
			checkPass(rep, cells, p, nil)
		} else {
			checkPass(rep, cells, p, &first)
		}
	}
	untraced := time.Since(t0)

	rec := newRecorder()
	stopProfile, err := profileIn(profilePath(o))
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	t1 := time.Now()
	var passes []passOut
	for i := range tracedPasses {
		p := runPass(ctx, cells, workers, rec, i)
		checkPass(rep, cells, p, &first)
		passes = append(passes, p)
	}
	traced := time.Since(t1)
	gc1 := readGC()
	if err := stopProfile(); err != nil {
		return nil, err
	}
	rep.digest = sessionsDigest(first)

	var results []*protean.Result
	for _, co := range first.cells {
		if co.res != nil {
			results = append(results, co.res)
		}
	}
	setModeled(rep, results)
	// Host time per modeled unit, by stratum: run time over instructions
	// for the interpreter-only cells, over cycles for the others.
	perUnit := func(kind string, instrs bool) float64 {
		var host time.Duration
		var units uint64
		for _, p := range passes {
			for i, co := range p.cells {
				if cells[i].Kind != kind || co.res == nil {
					continue
				}
				host += co.runD
				if !instrs {
					units += co.res.Cycles
					continue
				}
				for _, pr := range co.res.Procs {
					units += pr.Instrs
				}
			}
		}
		return ratio(float64(host.Nanoseconds()), float64(units))
	}
	m := rep.metrics
	m["session.ns_per_instr.baseline"] = perUnit("baseline", true)
	m["session.ns_per_cycle.thrash"] = perUnit("thrash", false)
	m["session.ns_per_cycle.gate"] = perUnit("gate", false)
	rep.setPct("session.new_ms.p50", rec.durations("session.new").scale(1e3), 50)
	rep.setPct("session.spawn_ms.p50", rec.durations("session.spawn").scale(1e3), 50)
	m["trace.overhead_x"] = traced.Seconds() / untraced.Seconds()
	setGC(rep, gc0, gc1)
	if err := setCPUShares(ctx, rep, profilePath(o)); err != nil {
		return nil, err
	}
	if err := setSelfTimes(rep, o, rec); err != nil {
		return nil, err
	}
	return rep, nil
}
