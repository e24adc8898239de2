package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		if !reflect.DeepEqual(sessionCells(seed), sessionCells(seed)) {
			t.Errorf("seed %d: session cells differ between calls", seed)
		}
		a, b := fleetScenario(seed, fleetFull), fleetScenario(seed, fleetFull)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: fleet scenarios differ between calls", seed)
		}
		s1, n1 := daemonSchedule(seed, 300, 20)
		s2, n2 := daemonSchedule(seed, 300, 20)
		if n1 != n2 || !reflect.DeepEqual(s1, s2) {
			t.Errorf("seed %d: daemon schedules differ between calls", seed)
		}
		d1, err1 := daemonSpecs(seed, n1)
		d2, err2 := daemonSpecs(seed, n1)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(d1, d2) {
			t.Errorf("seed %d: daemon specs differ between calls (%v, %v)", seed, err1, err2)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if reflect.DeepEqual(sessionCells(1), sessionCells(2)) {
		t.Error("session cells do not depend on the seed")
	}
	if reflect.DeepEqual(fleetScenario(1, fleetFull), fleetScenario(2, fleetFull)) {
		t.Error("fleet scenario does not depend on the seed")
	}
	s1, n1 := daemonSchedule(1, 300, 20)
	s2, _ := daemonSchedule(2, 300, 20)
	if reflect.DeepEqual(s1, s2) {
		t.Error("daemon schedule does not depend on the seed")
	}
	d1, _ := daemonSpecs(1, n1)
	d2, _ := daemonSpecs(2, n1)
	if reflect.DeepEqual(d1, d2) {
		t.Error("daemon specs do not depend on the seed")
	}
}

// TestWorkloadShapes pins the properties the workloads are chosen for.
func TestWorkloadShapes(t *testing.T) {
	sc := fleetScenario(1, fleetFull)
	nodes := 0
	for _, ns := range sc.Nodes {
		nodes += ns.Count
	}
	if jobs := fleetJobCount(sc); nodes != 4096 || jobs < 16000 || jobs > 1<<14 {
		t.Errorf("fleet: %d nodes, %d jobs", nodes, jobs)
	}
	if sc.Nodes[0].Session != sc.Nodes[1].Session || sc.Nodes[0].StoreSlots == sc.Nodes[1].StoreSlots {
		t.Error("fleet node specs must share a session class and differ in store slots")
	}

	sched, fresh := daemonSchedule(1, 300, 20)
	resent := 0
	for i, s := range sched {
		if i > 0 && s.Due < sched[i-1].Due {
			t.Fatal("daemon schedule is not in time order")
		}
		if s.Resend {
			resent++
		}
	}
	if resent != len(sched)/4 || fresh != len(sched)-resent {
		t.Errorf("daemon: %d resends, %d fresh of %d submits", resent, fresh, len(sched))
	}
	specs, err := daemonSpecs(1, fresh)
	if err != nil {
		t.Fatal(err)
	}
	type identity struct {
		workload         string
		instances, items int
	}
	seen := map[identity]bool{}
	for _, sc := range specs {
		if sc.Workers != 0 || sc.Lanes != 0 || sc.TraceOut != "" {
			t.Fatal("daemon spec sets a host-side field")
		}
		for _, js := range sc.Jobs {
			id := identity{js.Workload, js.Instances, js.Items}
			if seen[id] {
				t.Fatalf("daemon job identity %v repeats", id)
			}
			seen[id] = true
		}
	}
}

func TestHighestReportable(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestReportable(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestReportable(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestFullRunPercentiles checks that a run at BENCHMARK.json's settings,
// on the default and the held-out seed, has enough samples for every
// percentile whose sample count the inputs fix. Every run also checks
// each percentile metric it reports, and fails if one is unsupported.
func TestFullRunPercentiles(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	for i := 0; i+1 < len(spec.Command); i++ {
		if name, ok := strings.CutPrefix(spec.Command[i], "--"); ok {
			flags[name] = spec.Command[i+1]
		}
	}
	rate, err := strconv.ParseFloat(flags["daemon-rate"], 64)
	if err != nil {
		t.Fatalf("--daemon-rate in BENCHMARK.json: %v", err)
	}
	for _, seedFlag := range []string{"default-seed", "held-out-seed"} {
		seed, err := strconv.ParseInt(flags[seedFlag], 10, 64)
		if err != nil {
			t.Fatalf("--%s in BENCHMARK.json: %v", seedFlag, err)
		}
		sched, _, err := daemonInputs(options{seed: seed, rate: rate, seconds: spec.RunSeconds})
		if err != nil {
			t.Fatal(err)
		}
		resent := 0
		for _, s := range sched {
			if s.Resend {
				resent++
			}
		}
		cells := len(sessionCells(seed)) * tracedPasses
		for _, c := range []struct {
			name string
			p    float64
			n    int
		}{
			{"job_p95_ms", 95, len(sched) - resent},
			{"repeat_job_p50_ms", 50, resent},
			{"loadgen.lag_ms.p95", 95, len(sched)},
			{"server.submit_rtt_us.p50", 50, len(sched)},
			{"server.result_rtt_ms.p50", 50, len(sched)},
			{"session.new_ms.p50", 50, cells},
			{"session.spawn_ms.p50", 50, cells},
		} {
			if !reportable(c.p, c.n) {
				t.Errorf("seed %d: %s is p%g of %d samples", seed, c.name, c.p, c.n)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if s.median() != 3 || s.pct(100) != 5 || s.pct(1) != 1 || s.pct(80) != 4 {
		t.Errorf("pct over %v: median %g max %g min %g p80 %g", s, s.median(), s.pct(100), s.pct(1), s.pct(80))
	}
	if (samples{}).median() != 0 {
		t.Error("empty median is not 0")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, printedOnly, perLayer) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// metrics the program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past root
		{ID: 5, Parent: 2, Name: "c", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40 * ms, "a": 25 * ms, "b": 60 * ms, "c": 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestReduceTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  protean/internal/arm.(*CPU).Step
     200ms 20.00% 60.00%      200ms 20.00%  memeqbody
     100ms 10.00% 70.00%      100ms 10.00%  protean/internal/cluster.(*Fleet).Holds (inline)
     100ms 10.00% 80.00%      150ms 15.00%  runtime.scanobject
      50ms  5.00% 85.00%      150ms 15.00%  protean/internal/memo.(*Cache[go.shape.struct { a/b.c int }]).Do
      50ms  5.00% 90.00%       50ms  5.00%  protean.(*Session).Run
      50ms  5.00% 95.00%       50ms  5.00%  encoding/json.appendCompact
      50ms  5.00%   100%      120ms 12.00%  runtime.gcBgMarkWorker
`
	got, err := reduceTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"arm": 0.4, "runtime": 0.35, "cluster": 0.1, "other": 0.05, "protean": 0.05,
		"encoding_json": 0.05, "runtime_gc": 0.12,
	}
	for m, v := range want {
		if d := got[m] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share of %s = %g, want %g", m, got[m], v)
		}
	}
}

func TestParseGCLine(t *testing.T) {
	line := "gc 12 @1.234s 3%: 0.021+1.2+0.015 ms clock, 0.043+0.5/1.0/0+0.030 ms cpu, 31->32->16 MB, 33 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	g, ok := parseGCLine(line, time.Time{})
	if !ok || g.startMB != 31 || g.liveMB != 16 || g.pauseMillis < 0.0359 || g.pauseMillis > 0.0361 {
		t.Errorf("parseGCLine = %+v, %v", g, ok)
	}
	if _, ok := parseGCLine("proteand: listening on unix x.sock", time.Time{}); ok {
		t.Error("parsed a non-gc line")
	}
}

// TestSmoke builds the program and proteand and runs every workload at a
// tiny size, untraced and traced. The daemon runs long enough for its
// latency percentiles to be reportable, which the program checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bench, proteand := filepath.Join(dir, "perfbench"), filepath.Join(dir, "proteand")
	for _, b := range [][]string{{bench, "."}, {proteand, "protean/cmd/proteand"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b[1], err, out)
		}
	}
	for _, w := range []string{"sessions", "fleet-wide", "daemon"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				seconds := "1"
				if w == "daemon" {
					seconds = "12"
				}
				cmd := exec.Command(bench, "-workload", w, "-seed", "3", "-seconds", seconds, "-trace", trace,
					"-tiny", "-daemon-rate", "24", "-proteand", proteand, "-out", dir)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the summary: %v\n%s", err, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 || len(sum.Metrics) != len(defs) {
					t.Fatalf("summary %+v\n%s", sum, stdout.String())
				}
				if trace == "0" {
					for _, d := range defs {
						if sum.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %g", d.name, sum.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}
