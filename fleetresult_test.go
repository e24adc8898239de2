package protean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"protean"
)

// referenceFleetJSON is the reflect-based FleetResult encoder that
// FleetResult.MarshalJSON replaced: one encoding/json walk of the
// fields plus the two derived keys, re-encoding every job's Run.
func referenceFleetJSON(r *protean.FleetResult) any {
	type plain protean.FleetResult
	return struct {
		*plain
		ConfigLoads uint64 `json:"config_loads"`
		Error       string `json:"error"`
	}{(*plain)(r), r.ConfigLoads(), referenceErrString(r.Err())}
}

// referenceResultJSON is the reflect-based Result encoder
// (Result.MarshalJSON), kept here so the differential test also pins the
// Run bytes the fleet encoder splices in.
func referenceResultJSON(r *protean.Result) any {
	type plain protean.Result
	return struct {
		*plain
		Error string `json:"error"`
	}{(*plain)(r), referenceErrString(r.Err())}
}

func referenceErrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// awkward are strings encoding/json must escape or repair: HTML
// characters, the JavaScript line separators, invalid UTF-8, control
// and quote characters, and text that looks like the Jobs key.
var awkward = []string{
	"", "alpha/hw", "<b>&amp;</b>", "line\u2028para\u2029", "bad\xff\xfeutf8",
	"quote\" back\\slash", "tab\tnl\n\x00", `"Jobs":null`, "null}", "日本語",
}

func pick(rng *rand.Rand) string { return awkward[rng.Intn(len(awkward))] }

// randomValue fills a value of T with random contents.
func randomValue[T any](t *testing.T, rng *rand.Rand) T {
	t.Helper()
	v, ok := quick.Value(reflect.TypeFor[T](), rng)
	if !ok {
		t.Fatalf("quick.Value(%v) failed", reflect.TypeFor[T]())
	}
	return v.Interface().(T)
}

// randomResult builds a session result with random statistics and
// awkward console and process-name strings; Metrics is set on about
// half of them.
func randomResult(t *testing.T, rng *rand.Rand) *protean.Result {
	r := randomValue[protean.Result](t, rng)
	r.Procs = r.Procs[:min(len(r.Procs), rng.Intn(4))]
	for i := range r.Procs {
		r.Procs[i].Name, r.Procs[i].Workload = pick(rng), pick(rng)
		r.Procs[i].State = protean.ProcState(rng.Intn(3))
	}
	r.Console, r.Trace = pick(rng), pick(rng)
	if rng.Intn(2) == 0 {
		r.Metrics = nil
	}
	return &r
}

// randomFleet builds a FleetResult whose jobs draw their Run from a
// small pool, so most jobs share a *Result. The pool also holds a deep
// copy of its first entry: a distinct pointer with equal contents.
func randomFleet(t *testing.T, rng *rand.Rand) *protean.FleetResult {
	fr := randomValue[protean.FleetResult](t, rng)
	fr.Policy = pick(rng)
	if rng.Intn(2) == 0 {
		fr.Metrics = nil
	}
	pool := []*protean.Result{randomResult(t, rng), randomResult(t, rng), randomResult(t, rng)}
	twin := *pool[0]
	twin.Procs = append([]protean.ProcResult(nil), twin.Procs...)
	pool = append(pool, &twin)
	fr.Jobs = fr.Jobs[:rng.Intn(len(fr.Jobs)+1)]
	for i := range fr.Jobs {
		j := &fr.Jobs[i]
		j.Label, j.Workload = pick(rng), pick(rng)
		j.Run = nil
		if j.Shed = rng.Intn(5) == 0; !j.Shed {
			j.Run = pool[rng.Intn(len(pool))]
		}
	}
	return &fr
}

// checkFleetJSON requires MarshalJSON, json.Marshal and
// json.MarshalIndent of fr to match the reference encoder byte for byte.
func checkFleetJSON(t *testing.T, name string, fr *protean.FleetResult) {
	t.Helper()
	want, err := json.Marshal(referenceFleetJSON(fr))
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := fr.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: MarshalJSON: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON differs from the reference encoder\n got %s\nwant %s", name, got, want)
	}
	if got, err = json.Marshal(fr); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: json.Marshal differs from the reference encoder (err=%v)\n got %s\nwant %s", name, err, got, want)
	}
	wantIndent, err := json.MarshalIndent(referenceFleetJSON(fr), "", "  ")
	if err != nil {
		t.Fatalf("%s: reference indent: %v", name, err)
	}
	if got, err = json.MarshalIndent(fr, "", "  "); err != nil || !bytes.Equal(got, wantIndent) {
		t.Fatalf("%s: json.MarshalIndent differs from the reference encoder (err=%v)", name, err)
	}
	for _, j := range fr.Jobs {
		if j.Run == nil {
			continue
		}
		want, err := json.Marshal(referenceResultJSON(j.Run))
		if err != nil {
			t.Fatalf("%s: reference Result: %v", name, err)
		}
		if got, err := json.Marshal(j.Run); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: Result JSON differs from the reference encoder (err=%v)\n got %s\nwant %s", name, err, got, want)
		}
	}
}

// TestFleetResultJSONDifferential diffs FleetResult.MarshalJSON, which
// encodes each distinct Run once and splices it into every job sharing
// it, against the reflect encoder it replaced.
func TestFleetResultJSONDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shared := randomResult(t, rng)
	twin := *shared
	withMetrics := randomResult(t, rng)
	withMetrics.Metrics = &protean.Metrics{Metrics: []protean.MetricPoint{{Name: "<m>&", Kind: "counter", Value: 3}}}
	job := func(id int, run *protean.Result) protean.JobResult {
		return protean.JobResult{ID: id, Label: awkward[id%len(awkward)], Workload: "w<&>", Node: id, Run: run, Shed: run == nil}
	}
	edges := []struct {
		name string
		fr   protean.FleetResult
	}{
		{"zero", protean.FleetResult{}},
		{"nil jobs", protean.FleetResult{Policy: "x", Nodes: []protean.NodeResult{{Node: 0}}}},
		{"empty jobs", protean.FleetResult{Policy: "x", Jobs: []protean.JobResult{}}},
		{"all shed", protean.FleetResult{Jobs: []protean.JobResult{job(0, nil), job(1, nil)}}},
		{"first shed", protean.FleetResult{Jobs: []protean.JobResult{job(0, nil), job(1, shared)}}},
		{"shared run", protean.FleetResult{Jobs: []protean.JobResult{job(0, shared), job(1, shared), job(2, nil), job(3, shared)}}},
		{"equal twins", protean.FleetResult{Jobs: []protean.JobResult{job(0, shared), job(1, &twin), job(2, shared), job(3, &twin)}}},
		{"metrics", protean.FleetResult{Policy: "< >", Metrics: withMetrics.Metrics,
			Jobs: []protean.JobResult{job(0, withMetrics), job(1, withMetrics)}}},
		{"awkward policy", protean.FleetResult{Policy: `"Jobs":null,` + "\xff", Jobs: []protean.JobResult{job(0, shared)}}},
	}
	for _, e := range edges {
		checkFleetJSON(t, e.name, &e.fr)
	}
	for i := 0; i < 200; i++ {
		checkFleetJSON(t, fmt.Sprintf("random %d", i), randomFleet(t, rng))
	}

	// A real fleet run: memoized jobs share their representative's Run.
	c := testFleet(t, protean.WithPlacement(protean.PlaceAffinity))
	fleetMix(t, c, 9)
	fr, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkFleetJSON(t, "fleet run", fr)
}
