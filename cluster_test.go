package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"protean"
)

// fleetMix submits a thrash-heavy heterogeneous job stream: jobs rotating
// through the three paper applications, so the fleet juggles 4 distinct
// circuit configurations.
func fleetMix(t *testing.T, c *protean.Cluster, jobs int) {
	t.Helper()
	rotation := []string{"alpha/hw-nosoft", "twofish/hw-nosoft", "echo/hw-nosoft"}
	for i := 0; i < jobs; i++ {
		if err := c.Submit(rotation[i%len(rotation)], 2, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// testFleet builds a small 4-node fleet at a fast scale, with tight
// 2-slot bitstream stores so placement locality matters.
func testFleet(t *testing.T, extra ...protean.ClusterOption) *protean.Cluster {
	t.Helper()
	opts := append([]protean.ClusterOption{
		protean.WithNodes(4),
		protean.WithStoreSlots(2),
		protean.WithClusterSeed(7),
		protean.WithOpenLoop(40_000),
		protean.WithNodeOptions(
			protean.WithScale(800),
			protean.WithQuantum(protean.Quantum1ms/800),
		),
	}, extra...)
	c, err := protean.NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterAffinityReducesConfigLoads is the tentpole's acceptance
// check: on a thrash-heavy mix, configuration-affinity placement must
// strictly reduce total configuration loads against round-robin.
func TestClusterAffinityReducesConfigLoads(t *testing.T) {
	run := func(pol protean.PlacementPolicy) *protean.FleetResult {
		c := testFleet(t, protean.WithPlacement(pol))
		fleetMix(t, c, 12)
		fr, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := fr.Err(); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	rr := run(protean.PlaceRoundRobin)
	aff := run(protean.PlaceAffinity)
	if aff.ColdLoads >= rr.ColdLoads {
		t.Errorf("affinity cold loads %d not below round-robin %d", aff.ColdLoads, rr.ColdLoads)
	}
	if aff.ConfigLoads() >= rr.ConfigLoads() {
		t.Errorf("affinity total config loads %d not below round-robin %d",
			aff.ConfigLoads(), rr.ConfigLoads())
	}
	// Paired job streams: the in-session work is identical, so the whole
	// difference is placement locality.
	if aff.CIS.Loads != rr.CIS.Loads {
		t.Errorf("session loads differ: affinity=%d rr=%d", aff.CIS.Loads, rr.CIS.Loads)
	}
	t.Logf("config loads: round-robin=%d affinity=%d (cold %d vs %d)",
		rr.ConfigLoads(), aff.ConfigLoads(), rr.ColdLoads, aff.ColdLoads)
}

// TestClusterPlacementDeterminism checks the fleet determinism contract:
// serial and parallel fleet runs produce byte-identical output.
func TestClusterPlacementDeterminism(t *testing.T) {
	run := func(workers int) *protean.FleetResult {
		c := testFleet(t,
			protean.WithPlacement(protean.PlaceAffinity),
			protean.WithClusterWorkers(workers))
		fleetMix(t, c, 9)
		fr, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	serial := run(1)
	for _, workers := range []int{4, 8} {
		parallel := run(workers)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("fleet result differs at workers=%d", workers)
		}
		if serial.Table().CSV() != parallel.Table().CSV() {
			t.Errorf("fleet CSV not byte-identical at workers=%d", workers)
		}
		sj, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Errorf("fleet JSON not byte-identical at workers=%d", workers)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := protean.NewCluster(protean.WithNodes(0)); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := protean.NewCluster(protean.WithPlacement(nil)); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := protean.NewCluster(protean.WithStoreSlots(0)); err == nil {
		t.Error("zero store slots accepted")
	}
	c, err := protean.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit("no-such-workload", 1, 10); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := c.Submit("alpha", 0, 10); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("empty fleet ran")
	}
	// Validation failures above do not consume the cluster (ran is only
	// set once the run actually starts); a successful Run does.
	c2, err := protean.NewCluster(protean.WithNodeOptions(protean.WithScale(800)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Submit("alpha/hw-nosoft", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c2.Submit("alpha/hw-nosoft", 1, 0); err == nil {
		t.Error("Submit after Run accepted")
	}
	if _, err := c2.Run(context.Background()); err == nil {
		t.Error("second Run accepted")
	}
}

func TestClusterCancellation(t *testing.T) {
	c := testFleet(t, protean.WithClusterWorkers(2))
	fleetMix(t, c, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx); err == nil {
		t.Fatal("cancelled fleet run succeeded")
	}
}

// recordingSink counts events by kind behind a mutex, so parallel workers
// may hammer it under -race.
type recordingSink struct {
	mu     sync.Mutex
	counts map[protean.EventKind]int
}

func (rs *recordingSink) Event(e protean.Event) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.counts == nil {
		rs.counts = map[protean.EventKind]int{}
	}
	rs.counts[e.Kind]++
}

func (rs *recordingSink) count(k protean.EventKind) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.counts[k]
}

// multiSink fans one event out to several sinks.
type multiSink []protean.Sink

func (ms multiSink) Event(e protean.Event) {
	for _, s := range ms {
		s.Event(e)
	}
}

// TestSinkConcurrentDelivery hammers a WriterSink and a recording sink
// from parallel cluster nodes AND parallel sweep cells at once — the -race
// gate for the concurrent Sink contract. Every job session streams its
// run-start/proc-exit/run-done events into the same shared sinks the
// fleet streams its job-done events into.
func TestSinkConcurrentDelivery(t *testing.T) {
	var buf bytes.Buffer
	rec := &recordingSink{}
	shared := multiSink{protean.WriterSink(&buf), rec}

	const jobs = 12
	c := testFleet(t,
		protean.WithClusterWorkers(8),
		protean.WithFleetProgress(shared),
		protean.WithNodeOptions(protean.WithProgress(shared)))
	fleetMix(t, c, jobs)
	fr, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}

	if got := rec.count(protean.EventJobDone); got != jobs {
		t.Errorf("job-done events = %d, want %d", got, jobs)
	}
	if got := rec.count(protean.EventFleetDone); got != 1 {
		t.Errorf("fleet-done events = %d, want 1", got)
	}
	if got := rec.count(protean.EventRunStart); got != jobs {
		t.Errorf("run-start events = %d, want %d", got, jobs)
	}
	if got := rec.count(protean.EventProcessExit); got != jobs*2 {
		t.Errorf("proc-exit events = %d, want %d", got, jobs*2)
	}
	// WriterSink writes one line per event, never interleaved mid-line.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var total int
	rec.mu.Lock()
	for _, n := range rec.counts {
		total += n
	}
	rec.mu.Unlock()
	if len(lines) != total {
		t.Errorf("WriterSink wrote %d lines for %d events", len(lines), total)
	}
	for _, l := range lines {
		if strings.TrimSpace(l) == "" {
			t.Error("WriterSink produced an empty (torn) line")
		}
	}
}

func TestFleetResultSerialization(t *testing.T) {
	c := testFleet(t, protean.WithPlacement(protean.PlaceAffinity))
	fleetMix(t, c, 3)
	fr, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	csv := fr.Table().CSV()
	if !strings.HasPrefix(csv, "job,label,workload,node,") {
		t.Errorf("fleet CSV header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 4 { // header + 3 jobs
		t.Errorf("fleet CSV has %d lines, want 4:\n%s", got, csv)
	}
	var sb strings.Builder
	if err := fr.WriteCSV(&sb); err != nil || sb.String() != csv {
		t.Errorf("WriteCSV mismatch (err=%v)", err)
	}

	raw, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Policy      string `json:"Policy"`
		ConfigLoads uint64 `json:"config_loads"`
		Error       string `json:"error"`
		Jobs        []struct {
			Run struct {
				Error string `json:"error"`
			} `json:"Run"`
		} `json:"Jobs"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("fleet JSON does not round-trip: %v", err)
	}
	if decoded.Policy != "config-affinity" || decoded.Error != "" {
		t.Errorf("fleet JSON fields: %+v", decoded)
	}
	if decoded.ConfigLoads != fr.ConfigLoads() {
		t.Errorf("config_loads = %d, want %d", decoded.ConfigLoads, fr.ConfigLoads())
	}
	if len(decoded.Jobs) != 3 {
		t.Errorf("JSON jobs = %d", len(decoded.Jobs))
	}
}

func TestResultSerialization(t *testing.T) {
	s, err := protean.New(protean.WithScale(800))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("alpha/hw-nosoft", 2, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	csv := res.Table().CSV()
	if !strings.HasPrefix(csv, "pid,name,workload,state,") {
		t.Errorf("result CSV header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 3 { // header + 2 processes
		t.Errorf("result CSV has %d lines, want 3:\n%s", got, csv)
	}

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cycles uint64 `json:"Cycles"`
		Error  string `json:"error"`
		Procs  []json.RawMessage
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if decoded.Cycles != res.Cycles || decoded.Error != "" || len(decoded.Procs) != 2 {
		t.Errorf("result JSON fields: cycles=%d error=%q procs=%d",
			decoded.Cycles, decoded.Error, len(decoded.Procs))
	}
}

// TestTableEscapesCommas pins the shared serialization convention the
// figure CSVs rely on.
func TestTableEscapesCommas(t *testing.T) {
	tab := &protean.Table{Header: []string{"x", "a, b"}}
	tab.AddRow(1, "c,d")
	want := "x,a; b\n1,c;d\n"
	if got := tab.CSV(); got != want {
		t.Errorf("table CSV = %q, want %q", got, want)
	}
}

func ExampleCluster() {
	c, err := protean.NewCluster(
		protean.WithNodes(2),
		protean.WithPlacement(protean.PlaceAffinity),
		protean.WithStoreSlots(2),
		protean.WithNodeOptions(protean.WithScale(800)),
	)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Submit([]string{"alpha/hw-nosoft", "echo/hw-nosoft"}[i%2], 1, 0); err != nil {
			panic(err)
		}
	}
	fr, err := c.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("policy=%s jobs=%d verified=%v\n", fr.Policy, len(fr.Jobs), fr.Err() == nil)
	// Output: policy=config-affinity jobs=4 verified=true
}

// TestClusterMemoByteIdentical locks the execution memo at the facade:
// with identical jobs executed once per node class, the FleetResult —
// CSV and JSON serializations included — is byte-identical to a run
// that executes every job alone, at every worker count. The reference
// run is forced through the session-extras veto by a progress sink,
// which observes sessions without changing their Results. The mix
// repeats each workload, so the memo genuinely shares executions.
func TestClusterMemoByteIdentical(t *testing.T) {
	// The forcing option must be non-modeled: one session's Result bytes
	// are the same with and without it.
	var starts atomic.Int64
	counter := protean.SinkFunc(func(e protean.Event) {
		if e.Kind == protean.EventRunStart {
			starts.Add(1)
		}
	})
	session := func(opts ...protean.Option) []byte {
		opts = append([]protean.Option{protean.WithScale(800), protean.WithQuantum(protean.Quantum1ms / 800)}, opts...)
		s, err := protean.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Spawn("alpha/hw-nosoft", 2, 0); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(session(), session(protean.WithProgress(counter))) {
		t.Fatal("a progress sink changes the session Result")
	}

	const jobs = 12
	// run executes the fleet; instances > 0 replaces the mix with jobs
	// of echo at that many instances, which thrash the PFUs.
	run := func(workers, instances int, session ...protean.Option) *protean.FleetResult {
		c := testFleet(t,
			protean.WithPlacement(protean.PlaceAffinity),
			protean.WithClusterWorkers(workers),
			protean.WithNodeOptions(session...))
		if instances == 0 {
			fleetMix(t, c, jobs)
		} else {
			for i := 0; i < jobs; i++ {
				if err := c.Submit("echo/hw-nosoft", instances, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		fr, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	starts.Store(0)
	alone := run(1, 0, protean.WithProgress(counter))
	if n := starts.Load(); n != jobs {
		t.Fatalf("reference run executed %d sessions for %d jobs: the extras veto did not hold", n, jobs)
	}
	for _, workers := range []int{1, 4, 8} {
		memo := run(workers, 0)
		// The mix rotates three workloads, so jobs 0 and 3 share one
		// execution.
		if memo.Jobs[0].Run != memo.Jobs[3].Run {
			t.Fatalf("workers=%d: same-identity jobs did not share one execution", workers)
		}
		if !reflect.DeepEqual(alone, memo) {
			t.Fatalf("memoized fleet result differs from per-job execution at workers=%d", workers)
		}
		if alone.Table().CSV() != memo.Table().CSV() {
			t.Errorf("memoized CSV not byte-identical at workers=%d", workers)
		}
		aj, err := json.Marshal(alone)
		if err != nil {
			t.Fatal(err)
		}
		mj, err := json.Marshal(memo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, mj) {
			t.Errorf("memoized JSON not byte-identical at workers=%d", workers)
		}
	}
	// Seed-sensitive sessions veto the memo: under the random
	// replacement policy four thrashing echo instances make each job's
	// derived seed matter, so every job executes alone and the result
	// still matches the forced per-job run.
	starts.Store(0)
	randAlone := run(1, 4, protean.WithPolicy(protean.PolicyRandom), protean.WithProgress(counter))
	if n := starts.Load(); n != jobs {
		t.Fatalf("random-policy reference run executed %d sessions for %d jobs", n, jobs)
	}
	if randAlone.Jobs[0].Run.Cycles == randAlone.Jobs[1].Run.Cycles {
		t.Fatal("premise broken: same-identity random-policy jobs ran the same simulation")
	}
	randMemo := run(4, 4, protean.WithPolicy(protean.PolicyRandom))
	if !reflect.DeepEqual(randAlone, randMemo) {
		t.Fatal("random-policy fleet differs from per-job execution: the memo was not vetoed")
	}
}

// TestScenarioLanesRejected: the retired Scenario.Lanes field is rejected
// with an error that names it, whatever its value.
func TestScenarioLanesRejected(t *testing.T) {
	for _, spec := range []string{
		`{"lanes":1,"nodes":[{}],"jobs":[{"workload":"echo"}]}`,
		`{"lanes":64,"nodes":[{}],"jobs":[{"workload":"echo"}]}`,
		`{"lanes":-1,"nodes":[{}],"jobs":[{"workload":"echo"}]}`,
	} {
		sc, err := protean.LoadScenario([]byte(spec))
		if err == nil {
			err = sc.Validate()
		}
		if err == nil || !strings.Contains(err.Error(), "lanes") {
			t.Errorf("%s: err %v, want a rejection naming lanes", spec, err)
		}
	}
	c, err := protean.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit("echo", 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Scenario().Lanes; got != 0 {
		t.Errorf("Cluster.Scenario sets lanes %d", got)
	}
}
