// Command benchjson regenerates the tracked performance trajectories:
// BENCH_fabric.json (the simulation substrates — PFU settle engines,
// configuration loads, bitstream decode, the equivalence prover) and
// BENCH_cluster.json (the fleet layer — placement, job throughput with
// no repeated job identity and at 1k-node scale, placement replay per
// policy at the scenario caps, and the observability overhead ratio of a
// traced versus untraced run). Each file runs its benchmark suite for
// one iteration and records every reported metric (ns/op, allocs, and
// the custom metrics the benchmarks emit — speedup-vs-gate-x,
// jobs/sec, obs-overhead-x, ...) as a benchmark-name → metric map.
//
// Metric values drift with hardware and load, so CI does not pin them;
// it runs `benchjson -check`, which regenerates the suites and fails
// only on schema drift — a benchmark or metric that appeared in or
// vanished from a committed file. That keeps the trajectory files
// honest: adding a benchmark (or losing one) forces a regeneration in
// the same commit.
//
// Usage:
//
//	go run ./cmd/benchjson            # rewrite both trajectory files
//	go run ./cmd/benchjson -check     # fail on schema drift, ignore values
//	go run ./cmd/benchjson -only BENCH_cluster.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchRun is one `go test -bench` invocation feeding a trajectory.
type benchRun struct {
	pkg   string
	bench string
}

// suites pins which benchmarks feed each trajectory file. The figure
// sweeps are excluded — they regenerate paper plots, not substrate or
// fleet performance.
var suites = []struct {
	file    string
	comment string
	runs    []benchRun
}{
	{
		file: "BENCH_fabric.json",
		comment: "substrate performance trajectory; regenerate with `go run ./cmd/benchjson` " +
			"(CI checks only the schema - benchmark names and metric keys - not the values)",
		runs: []benchRun{
			{".", "^(BenchmarkBehaviouralPFU|BenchmarkGatePFU|BenchmarkCompiledPFU|" +
				"BenchmarkConfigLoad|BenchmarkConfigLoadGate|BenchmarkInstanceStampOut|BenchmarkBitstreamDecode|" +
				"BenchmarkTLBLookup)$"},
			{"./internal/fabric", "^BenchmarkEquiv$"},
		},
	},
	{
		file: "BENCH_cluster.json",
		comment: "fleet performance trajectory; regenerate with `go run ./cmd/benchjson` " +
			"(CI checks only the schema - benchmark names and metric keys - not the values)",
		runs: []benchRun{
			{".", "^(BenchmarkClusterAffinityVsRoundRobin|BenchmarkClusterDistinctJobs|" +
				"BenchmarkFleet1kNodes|BenchmarkObsOverhead)$"},
			{"./internal/cluster", "^BenchmarkReplay$"},
		},
	},
	{
		file: "BENCH_daemon.json",
		comment: "service layer performance trajectory; regenerate with `go run ./cmd/benchjson` " +
			"(CI checks only the schema - benchmark names and metric keys - not the values)",
		runs: []benchRun{
			{"./internal/server", "^BenchmarkDaemonSubmitThroughput$"},
			{"./internal/wire", "^BenchmarkWireEncode$"},
		},
	},
}

// trajectory is the on-disk shape of a trajectory file.
type trajectory struct {
	// Comment explains the file to readers stumbling on it in the tree.
	Comment string `json:"comment"`
	// Benchmarks maps benchmark name (Benchmark prefix and -GOMAXPROCS
	// suffix stripped) to its reported metrics.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkCompiledPFU-8   1   2505 ns/op   1.55 speedup-vs-gate-x   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	check := flag.Bool("check", false, "regenerate and fail on schema drift against the committed files (values are not compared)")
	only := flag.String("only", "", "limit to one trajectory file (e.g. BENCH_cluster.json)")
	flag.Parse()

	matched := false
	for _, s := range suites {
		if *only != "" && s.file != *only {
			continue
		}
		matched = true
		got, err := run(s.comment, s.runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}

		if *check {
			want, err := load(s.file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			if drift := schemaDrift(want.Benchmarks, got.Benchmarks); len(drift) > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: schema drift against %s:\n", s.file)
				for _, d := range drift {
					fmt.Fprintln(os.Stderr, "  "+d)
				}
				fmt.Fprintln(os.Stderr, "regenerate with: go run ./cmd/benchjson")
				os.Exit(1)
			}
			fmt.Printf("benchjson: schema matches %s (%d benchmarks)\n", s.file, len(got.Benchmarks))
			continue
		}

		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(s.file, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", s.file, len(got.Benchmarks))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchjson: -only %s matches no trajectory file\n", *only)
		os.Exit(1)
	}
}

// run executes one pinned suite and parses every metric it reports.
func run(comment string, runs []benchRun) (*trajectory, error) {
	tr := &trajectory{
		Comment:    comment,
		Benchmarks: make(map[string]map[string]float64),
	}
	for _, s := range runs {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", s.bench, "-benchtime", "1x", "-count", "1", s.pkg)
		outBuf, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s %s: %w\n%s", s.bench, s.pkg, err, outBuf)
		}
		if err := parse(string(outBuf), tr.Benchmarks); err != nil {
			return nil, fmt.Errorf("parsing %s output: %w", s.pkg, err)
		}
	}
	if len(tr.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed")
	}
	return tr, nil
}

// parse extracts metric maps from `go test -bench` output into dst.
func parse(out string, dst map[string]map[string]float64) error {
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return fmt.Errorf("odd metric fields in %q", line)
		}
		metrics := make(map[string]float64, len(fields)/2)
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("metric value %q in %q: %w", fields[i], line, err)
			}
			metrics[fields[i+1]] = v
		}
		dst[name] = metrics
	}
	return nil
}

func load(path string) (*trajectory, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr trajectory
	if err := json.Unmarshal(buf, &tr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tr, nil
}

// schemaDrift reports benchmarks and metric keys present in one side
// but not the other, as human-readable lines. Values are ignored.
func schemaDrift(want, got map[string]map[string]float64) []string {
	var drift []string
	for _, name := range sortedKeys(want) {
		g, ok := got[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("benchmark %s: in file, not reported by suite", name))
			continue
		}
		for _, k := range sortedMetricKeys(want[name]) {
			if _, ok := g[k]; !ok {
				drift = append(drift, fmt.Sprintf("benchmark %s: metric %q in file, not reported", name, k))
			}
		}
		for _, k := range sortedMetricKeys(g) {
			if _, ok := want[name][k]; !ok {
				drift = append(drift, fmt.Sprintf("benchmark %s: metric %q reported, not in file", name, k))
			}
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			drift = append(drift, fmt.Sprintf("benchmark %s: reported by suite, not in file", name))
		}
	}
	return drift
}

func sortedKeys(m map[string]map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
