package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"protean"
)

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// initPerLayer sets every per-layer metric to 0, the value of a layer
// the workload does not reach.
func initPerLayer(rep *report) {
	for _, d := range perLayer {
		rep.metrics[d.name] = 0
	}
}

// gcStats is a reading of the runtime's collector counters.
type gcStats struct {
	count uint32
	pause time.Duration
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{m.NumGC, time.Duration(m.PauseTotalNs)}
}

// setGC reports the collector's work between two readings.
func setGC(rep *report, a, b gcStats) {
	rep.metrics["gc.count"] = float64(b.count - a.count)
	rep.metrics["gc.pause_ms"] = ms(b.pause - a.pause)
}

// setModeled sums the modeled counts of a list of session results.
func setModeled(rep *report, results []*protean.Result) {
	var instrs, loads, faults, switches, hw, exec, lookups, misses uint64
	for _, r := range results {
		for _, p := range r.Procs {
			instrs += p.Instrs
		}
		loads += r.CIS.Loads
		faults += r.CIS.Faults
		switches += r.Kernel.ContextSwitches
		hw += r.RFU.HWDispatches
		exec += r.RFU.ExecCycles
		lookups += r.TLB1.Lookups
		misses += r.TLB1.Misses
	}
	m := rep.metrics
	m["sim.instrs"] = float64(instrs)
	m["cis.loads"] = float64(loads)
	m["cis.faults"] = float64(faults)
	m["cis.loads_per_fault"] = ratio(float64(loads), float64(faults))
	m["kernel.context_switches"] = float64(switches)
	m["rfu.hw_dispatches"] = float64(hw)
	m["rfu.exec_cycles"] = float64(exec)
	if lookups > 0 {
		m["tlb1.hit_ratio"] = 1 - float64(misses)/float64(lookups)
	}
}

// setSelfTimes reports each span name's self time and writes the spans
// out.
func setSelfTimes(rep *report, o options, rec *recorder) error {
	spans := rec.snapshot()
	for name, d := range selfTimes(spans) {
		key := "self_s." + name
		if _, ok := rep.metrics[key]; !ok {
			return fmt.Errorf("span %q has no self-time metric", name)
		}
		rep.metrics[key] = d.Seconds()
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	rep.note("%d spans written to %s", len(spans), path)
	return rec.writeFile(path)
}

// profileIn starts a CPU profile of this process and returns the
// function that stops it.
func profileIn(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func profilePath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", o.workload, o.seed))
}

// setCPUShares reduces a CPU profile by package with go tool pprof and
// reports each module's share of the samples.
func setCPUShares(ctx context.Context, rep *report, path string) error {
	shares, err := cpuShares(ctx, path)
	if err != nil {
		return err
	}
	for mod, v := range shares {
		rep.metrics["cpu_share."+mod] = v
	}
	return nil
}

func cpuShares(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return reduceTop(string(out))
}

// gcRoots are the runtime functions under which all collector work
// runs: background marking, allocation assists and sweeping.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// reduceTop sums the flat samples of a pprof -top listing by module.
// runtime_gc is the cumulative time under gcRoots, and so overlaps the
// flat runtime share.
func reduceTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total, gc float64
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		fl, err1 := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[3], "ms"), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof line %q", line)
		}
		name := strings.Join(f[5:], " ")
		flat[moduleOf(name)] += fl
		total += fl
		for _, root := range gcRoots {
			if name == root {
				gc += cum
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile has no samples")
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		shares[m] = flat[m] / total
	}
	shares["runtime_gc"] = gc / total
	return shares, nil
}

// moduleOf maps a profiled function name onto the module it belongs to.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		// Assembly routines such as memeqbody carry no package.
		return "runtime"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "protean":
		return "protean"
	case pkg == "runtime":
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	if mod, ok := strings.CutPrefix(pkg, "protean/internal/"); ok {
		switch mod {
		case "arm", "bus", "machine", "kernel", "core", "fabric", "cluster", "wire", "server":
			return mod
		}
	}
	return "other"
}
