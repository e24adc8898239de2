// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload's inputs from a seed, drives the system only
// through its public entry points (protean.New/Spawn/Run,
// protean.Start, and internal/server.Client against a proteand
// process), checks every output, and prints one metric per line
// followed by a JSON summary as the last line of standard output.
//
// Usage:
//
//	perfbench -workload sessions|fleet-wide|daemon -seed N -seconds S -trace 0|1
//	          [-daemon-rate R] [-latency-limit-ms L] [-default-seed N]
//	          [-held-out-seed N] [-pin WORKLOAD=DIGEST ...] [-proteand PATH]
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the same work untraced and then traced (spans recorded around
// every call into the system, CPU profile) and reports the per-layer
// metrics. perfbench/run.py builds the program and runs it; README.md
// in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"cpu_ms_per_job", "ms"},
}

// printedOnly are end-to-end metrics a -trace 0 run prints and records,
// for the workloads that report them, but leaves out of the JSON summary
// and BENCHMARK.json, so no bound gates them. On the 2-vCPU reference
// host, phases of memory contention from other tenants slow the
// daemon's memory-bound session construction, and its open-loop
// queueing amplifies that: over ten seeds its latencies, Status
// round-trips and resident memory spread by 0.2 to 0.65 of their
// median, and goodput, once latencies near the limit, by 0.15; more
// than a bound may allow. failed_ratio is 0 on a correct run, and the
// summary carries the same facts as attempted and failed.
var printedOnly = []metricDef{
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"repeat_job_p50_ms", "ms"},
	{"rpc_p50_us", "us"},
	{"rpc_p99_us", "us"},
	{"goodput_jobs_per_s", "1/s"},
	{"failed_ratio", "ratio"},
}

// cpuModules are the groups a CPU profile is reduced to; see
// moduleOf.
var cpuModules = []string{
	"arm", "bus", "machine", "kernel", "core", "fabric", "cluster",
	"wire", "server", "protean", "encoding_json", "runtime", "runtime_gc", "other",
}

// spanNames are the spans the traced run records; each gets a self
// time.
var spanNames = []string{
	"session", "session.new", "session.spawn", "session.run",
	"fleet", "spec.resolve", "cluster.execute", "cluster.replay", "result.marshal",
	"request", "server.submit", "server.status", "server.result",
}

// perLayer lists the metrics a -trace 1 run reports. A layer that a
// workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// session construction
		{"session.new_ms.p50", "ms"},
		{"session.spawn_ms.p50", "ms"},
		{"gc.pause_ms", "ms"},
		{"gc.count", "count"},
		// interpreter and bus
		{"session.ns_per_instr.baseline", "ns"},
		{"sim.instrs", "count"},
		// kernel and CIS
		{"session.ns_per_cycle.thrash", "ns"},
		{"cis.loads", "count"},
		{"cis.faults", "count"},
		{"cis.loads_per_fault", "ratio"},
		{"kernel.context_switches", "count"},
		// RFU and fabric
		{"session.ns_per_cycle.gate", "ns"},
		{"rfu.hw_dispatches", "count"},
		{"rfu.exec_cycles", "count"},
		{"tlb1.hit_ratio", "ratio"},
		// spec resolve, fleet Execute, Replay, rendering
		{"spec.resolve_ms", "ms"},
		{"cluster.execute_s", "s"},
		{"cluster.execute_ms_per_job", "ms"},
	}
	for _, p := range fleetPolicies {
		defs = append(defs,
			metricDef{"cluster.replay_s." + p, "s"},
			metricDef{"fleet.warm_hit_ratio." + p, "ratio"},
			metricDef{"fleet.deferred." + p, "count"},
			metricDef{"fleet.makespan_cycles." + p, "count"},
		)
	}
	defs = append(defs,
		metricDef{"result.marshal_s", "s"},
		metricDef{"result.json_mb", "MB"},
		// wire and daemon
		metricDef{"server.submit_rtt_us.p50", "us"},
		metricDef{"server.result_rtt_ms.p50", "ms"},
		metricDef{"wire.encode_mb_per_s", "MB/s"},
		metricDef{"wire.decode_mb_per_s", "MB/s"},
		metricDef{"daemon.cpu_util", "ratio"},
		metricDef{"server.events_dropped", "count"},
		metricDef{"loadgen.lag_ms.p95", "ms"},
		// the traced run itself
		metricDef{"trace.overhead_x", "ratio"},
	)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu_share." + m, "ratio"})
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{"self_s." + s, "s"})
	}
	return defs
}()

// options are the parsed command-line settings.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	rate         float64
	latencyLimit time.Duration
	defaultSeed  int64
	heldOutSeed  int64
	pins         map[string]string
	proteand     string
	outDir       string
	self         string
	tiny         bool
}

// setupRuns is how many set-ups a run measures for setup_s; the smoke
// test's tiny size measures one.
const setupRuns = 11

// setupGap is the least time between the starts of two measured
// set-ups. Spread over a few seconds, they do not all land in one
// short stall of the host.
const setupGap = 250 * time.Millisecond

func (o options) setups() int {
	if o.tiny {
		return 1
	}
	return setupRuns
}

// inProcessProcs is the GOMAXPROCS of the workloads that run the system
// in this process, sessions and fleet-wide, in their set-up, timed and
// traced sections; the daemon workload's proteand keeps every core. On
// a host of two shared cores, how much of the second core a run got
// came and went with other tenants over minutes: fleet-wide wall time
// moved by a quarter at steady CPU time, and sessions throughput and
// set-up time spread more over seeds. On one core wall time follows the
// CPU time the work takes. README.md gives the measurements.
const inProcessProcs = 1

// report is what one workload run produced.
type report struct {
	metrics   map[string]float64
	pcts      map[string]pctUse
	attempted int
	failed    int
	errs      []string
	digest    string
	notes     []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, pcts: map[string]pctUse{}}
}

// pctUse is the percentile a metric reports and its sample count.
type pctUse struct {
	p float64
	n int
}

// setPct reports the p-th percentile of s as metric name. A run whose
// samples do not support the percentile (see reportable) fails.
func (r *report) setPct(name string, s samples, p float64) {
	r.metrics[name] = s.pct(p)
	r.pcts[name] = pctUse{p, len(s)}
}

// fail records a failed output check; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type pinFlag map[string]string

func (p pinFlag) String() string { return fmt.Sprint(map[string]string(p)) }

func (p pinFlag) Set(s string) error {
	w, d, ok := strings.Cut(s, "=")
	if !ok || w == "" || d == "" {
		return fmt.Errorf("want WORKLOAD=DIGEST, got %q", s)
	}
	p[w] = d
	return nil
}

var workloads = map[string]func(options) (*report, error){
	"sessions":   runSessions,
	"fleet-wide": runFleet,
	"daemon":     runDaemon,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{pins: map[string]string{}}
	var trace int
	var limitMS float64
	var setupChild, serve bool
	var unix, cpuprofile string
	var maxActive int
	fs.StringVar(&o.workload, "workload", "", "workload: sessions, fleet-wide or daemon")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.Float64Var(&o.rate, "daemon-rate", 9, "daemon workload submits per second")
	fs.Float64Var(&limitMS, "latency-limit-ms", 500, "daemon goodput latency limit in ms")
	fs.Int64Var(&o.defaultSeed, "default-seed", 1, "seed whose output digests are pinned")
	fs.Int64Var(&o.heldOutSeed, "held-out-seed", 0, "seed no change may be tuned on (recorded only)")
	fs.Var(pinFlag(o.pins), "pin", "WORKLOAD=DIGEST of the default seed's modeled output (repeatable)")
	fs.StringVar(&o.proteand, "proteand", "", "proteand binary for the daemon workload")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for spans, profiles and result records")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink the workloads for a smoke test")
	fs.BoolVar(&setupChild, "setup-child", false, "internal: set up the workload, print ready, exit")
	fs.BoolVar(&serve, "serve", false, "internal: host the daemon's server package under a CPU profile")
	fs.StringVar(&unix, "unix", "", "internal: -serve socket path")
	fs.IntVar(&maxActive, "max-active", 0, "internal: -serve max active jobs")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "internal: -serve CPU profile path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if serve {
		if err := serveDaemon(unix, maxActive, cpuprofile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.workload != "daemon" {
		runtime.GOMAXPROCS(inProcessProcs)
	}
	if setupChild {
		if err := setupOnly(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	o.trace = trace == 1
	o.latencyLimit = time.Duration(limitMS * float64(time.Millisecond))
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.self = self
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	host := readHostFacts()
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit)
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d default_seed=%d held_out_seed=%d\n",
		o.workload, o.seed, o.seconds, trace, o.defaultSeed, o.heldOutSeed)

	rep, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var bad []string
	for _, name := range slices.Sorted(maps.Keys(rep.pcts)) {
		u := rep.pcts[name]
		top, _ := highestReportable(u.n)
		rep.note("%s: p%g of %d samples; they support up to p%g", name, u.p, u.n, top)
		if !reportable(u.p, u.n) {
			bad = append(bad, fmt.Sprintf("%s is p%g of %d samples", name, u.p, u.n))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: fewer than 10 samples beyond the percentile: %s\n", strings.Join(bad, "; "))
		return 1
	}
	fmt.Fprintf(stdout, "digest: %s=%s\n", o.workload, rep.digest)
	if pin, ok := o.pins[o.workload]; ok && o.seed == o.defaultSeed && pin != rep.digest {
		rep.failed++
		rep.fail("modeled output digest %s, pinned %s for seed %d", rep.digest, pin, o.seed)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	rep.attempted = max(rep.attempted, rep.failed, 1)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report %s\n", o.workload, d.name)
			return 1
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric: %-34s %16.6f %s\n", d.name, v, d.unit)
	}
	if !o.trace {
		rep.metrics["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
		for _, d := range printedOnly {
			if v, ok := rep.metrics[d.name]; ok {
				fmt.Fprintf(stdout, "metric: %-34s %16.6f %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stdout, "check failed:", e)
	}
	sum := summary{Correct: len(rep.errs) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: out}
	if err := writeRecord(o, host, rep, sum); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !sum.Correct {
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// writeRecord keeps the summary with the host facts it was measured on.
func writeRecord(o options, host hostFacts, rep *report, sum summary) error {
	rec := struct {
		Host        hostFacts          `json:"host"`
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Seconds     float64            `json:"seconds"`
		Trace       bool               `json:"trace"`
		DefaultSeed int64              `json:"default_seed"`
		HeldOutSeed int64              `json:"held_out_seed"`
		Digest      string             `json:"digest"`
		Errors      []string           `json:"errors,omitempty"`
		Summary     summary            `json:"summary"`
		All         map[string]float64 `json:"all_metrics"`
	}{host, o.workload, o.seed, o.seconds, o.trace, o.defaultSeed, o.heldOutSeed, rep.digest, rep.errs, sum, rep.metrics}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	name := fmt.Sprintf("result-%s-seed%d-%s.json", o.workload, o.seed, mode)
	return os.WriteFile(filepath.Join(o.outDir, name), b, 0o644)
}
