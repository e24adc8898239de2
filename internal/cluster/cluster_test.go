package cluster

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// key makes a distinguishable Key from a byte tag.
func key(tag byte) Key {
	var k Key
	k[0] = tag
	return k
}

// fixedRunner returns a runner whose job i takes cycles[i%len(cycles)]
// cycles, independent of seed.
func fixedRunner(cycles ...uint64) Runner {
	return func(i, _ int, _ int64) (Exec, error) {
		return Exec{Cycles: cycles[i%len(cycles)]}, nil
	}
}

// altJobs builds n jobs alternating between two single-circuit kinds.
func altJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Label:    string(rune('A' + i%2)),
			Circuits: []Circuit{{Key: key(byte(i % 2)), Bytes: 1000}},
		}
	}
	return jobs
}

func TestStoreLRU(t *testing.T) {
	st := store{slots: 2}
	if hit, _ := st.touch(1); hit {
		t.Fatal("empty store hit")
	}
	if hit, _ := st.touch(1); !hit {
		t.Fatal("resident key missed")
	}
	if _, ev := st.touch(2); ev != -1 {
		t.Fatalf("store with a free slot evicted %d", ev)
	}
	st.touch(1)                        // refresh 1: LRU order now [2, 1]
	if _, ev := st.touch(3); ev != 2 { // evicts 2
		t.Fatalf("evicted %d, want LRU victim 2", ev)
	}
	if st.holds(2) {
		t.Error("LRU victim 2 still resident")
	}
	if !st.holds(1) || !st.holds(3) {
		t.Errorf("store lost a resident key: %v", st.keys)
	}
	if len(st.keys) != 2 {
		t.Errorf("store overflowed its slots: %d keys", len(st.keys))
	}
}

// expand is a test helper unwrapping the arrival expansion.
func expand(t *testing.T, a Arrivals, n int, seed int64) []uint64 {
	t.Helper()
	out, err := a.times(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestArrivalTimes(t *testing.T) {
	if got := expand(t, Arrivals{}, 4, 1); !reflect.DeepEqual(got, []uint64{0, 0, 0, 0}) {
		t.Errorf("batch arrivals = %v", got)
	}
	a := Arrivals{MeanGap: 1000}
	got := expand(t, a, 64, 1)
	prev := uint64(0)
	for i, v := range got {
		gap := v - prev
		if gap < 500 || gap > 1500 {
			t.Fatalf("gap %d at job %d outside [MeanGap/2, 3·MeanGap/2]", gap, i)
		}
		prev = v
	}
	if !reflect.DeepEqual(got, expand(t, a, 64, 1)) {
		t.Error("arrival times not deterministic")
	}
	if reflect.DeepEqual(got, expand(t, a, 64, 2)) {
		t.Error("arrival times ignore the seed")
	}
	// The legacy zero Kind must mean "uniform iff MeanGap > 0" so
	// option-built fleets keep their PR 4 arrival sequences bit-for-bit.
	if !reflect.DeepEqual(got, expand(t, Arrivals{Kind: ArriveUniform, MeanGap: 1000}, 64, 1)) {
		t.Error("explicit uniform differs from the legacy default expansion")
	}
}

func TestArrivalPoisson(t *testing.T) {
	a := Arrivals{Kind: ArrivePoisson, MeanGap: 1000}
	got := expand(t, a, 512, 1)
	prev := uint64(0)
	var sum uint64
	for i, v := range got {
		if v < prev {
			t.Fatalf("arrival clock decreased at job %d", i)
		}
		sum += v - prev
		prev = v
	}
	mean := float64(sum) / 512
	if mean < 800 || mean > 1200 {
		t.Errorf("poisson mean gap = %.1f, want ≈1000", mean)
	}
	if !reflect.DeepEqual(got, expand(t, a, 512, 1)) {
		t.Error("poisson arrivals not deterministic")
	}
	if reflect.DeepEqual(got, expand(t, Arrivals{Kind: ArriveUniform, MeanGap: 1000}, 512, 1)) {
		t.Error("poisson arrivals identical to uniform jitter")
	}
}

func TestArrivalTrace(t *testing.T) {
	times := []uint64{0, 5, 5, 100}
	got := expand(t, Arrivals{Kind: ArriveTrace, Times: times}, 4, 1)
	if !reflect.DeepEqual(got, times) {
		t.Errorf("trace arrivals = %v, want %v", got, times)
	}
	// A longer trace covers a shorter job list.
	if got := expand(t, Arrivals{Kind: ArriveTrace, Times: times}, 2, 1); !reflect.DeepEqual(got, times[:2]) {
		t.Errorf("truncated trace arrivals = %v", got)
	}
	if _, err := (Arrivals{Kind: ArriveTrace, Times: times}).times(5, 1); err == nil {
		t.Error("short trace accepted")
	}
	if _, err := (Arrivals{Kind: ArriveTrace, Times: []uint64{5, 4}}).times(2, 1); err == nil {
		t.Error("decreasing trace accepted")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	tr, err := Run(Config{Nodes: 3, Seed: 1}, altJobs(6), fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	for i, jt := range tr.Jobs {
		if jt.Node != i%3 {
			t.Errorf("job %d on node %d, want %d", i, jt.Node, i%3)
		}
	}
}

func TestLeastLoadedPrefersIdle(t *testing.T) {
	// Job 0 is huge; with batch arrivals, least-loaded must route all
	// later jobs around node 0.
	jobs := altJobs(4)
	tr, err := Run(Config{Nodes: 2, Seed: 1, Policy: LeastLoaded()},
		jobs, fixedRunner(1_000_000, 10, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs[0].Node != 0 {
		t.Fatalf("first job on node %d", tr.Jobs[0].Node)
	}
	for _, jt := range tr.Jobs[1:] {
		if jt.Node != 1 {
			t.Errorf("job %d placed on the busy node", jt.ID)
		}
	}
}

func TestAffinityPinsKindsToNodes(t *testing.T) {
	// Alternating A/B jobs on a 3-node fleet with single-slot stores:
	// affinity must pin each kind to one node after the cold start —
	// exactly 2 cold loads total — while round-robin's 3-cycle is out of
	// phase with the 2-cycle of kinds, so every node alternates kinds and
	// every placement is cold.
	jobs := altJobs(12)
	aff, err := Run(Config{Nodes: 3, StoreSlots: 1, Seed: 1, Policy: Affinity()},
		jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	if aff.ColdLoads != 2 {
		t.Errorf("affinity cold loads = %d, want 2", aff.ColdLoads)
	}
	if aff.WarmHits != 10 {
		t.Errorf("affinity warm hits = %d, want 10", aff.WarmHits)
	}
	rr, err := Run(Config{Nodes: 3, StoreSlots: 1, Seed: 1, Policy: RoundRobin()},
		jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	if rr.ColdLoads != 12 {
		t.Errorf("round-robin cold loads = %d, want 12 (kinds out of phase with nodes)", rr.ColdLoads)
	}
	if aff.ColdLoads >= rr.ColdLoads {
		t.Errorf("affinity (%d) did not beat round-robin (%d)", aff.ColdLoads, rr.ColdLoads)
	}
}

func TestAffinityFallsBackToLeastLoaded(t *testing.T) {
	// No node ever holds job circuits (jobs carry none), so affinity must
	// behave exactly like least-loaded.
	jobs := make([]Job, 8)
	aff, err := Run(Config{Nodes: 4, Seed: 1, Policy: Affinity()}, jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	ll, err := Run(Config{Nodes: 4, Seed: 1, Policy: LeastLoaded()}, jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range aff.Jobs {
		if aff.Jobs[i].Node != ll.Jobs[i].Node {
			t.Errorf("job %d: affinity node %d, least-loaded node %d",
				i, aff.Jobs[i].Node, ll.Jobs[i].Node)
		}
	}
}

func TestRandomPlacementDeterministicPerSeed(t *testing.T) {
	jobs := altJobs(32)
	run := func(seed int64) *Trace {
		tr, err := Run(Config{Nodes: 4, Seed: seed, Policy: Random()}, jobs, fixedRunner(100))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if !reflect.DeepEqual(run(3), run(3)) {
		t.Error("random placement not reproducible for one seed")
	}
	if reflect.DeepEqual(run(3).Jobs, run(4).Jobs) {
		t.Error("random placement identical across seeds")
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := altJobs(24)
	var ref *Trace
	for _, workers := range []int{1, 4, 16} {
		tr, err := Run(Config{
			Nodes: 3, StoreSlots: 1, Seed: 9, Workers: workers,
			Policy: Affinity(), Arrivals: Arrivals{MeanGap: 500},
		}, jobs, func(i, _ int, seed int64) (Exec, error) {
			// Service time depends on the derived seed, so this also
			// checks that seeds are independent of worker count.
			return Exec{Cycles: 100 + uint64(seed)%1000}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = tr
		} else if !reflect.DeepEqual(ref, tr) {
			t.Fatalf("trace differs at workers=%d", workers)
		}
	}
}

func TestRunTimeline(t *testing.T) {
	// One node: jobs serialize; completion = start + fetch + cycles.
	jobs := altJobs(2)
	tr, err := Run(Config{Nodes: 1, FetchBytesPerCycle: 100, Seed: 1}, jobs, fixedRunner(500))
	if err != nil {
		t.Fatal(err)
	}
	j0, j1 := tr.Jobs[0], tr.Jobs[1]
	if j0.FetchCycles != 10 { // 1000 bytes at 100 B/cycle
		t.Errorf("fetch cycles = %d, want 10", j0.FetchCycles)
	}
	if j0.Completion != 510 {
		t.Errorf("job 0 completion = %d, want 510", j0.Completion)
	}
	if j1.Start != j0.Completion {
		t.Errorf("job 1 started at %d before node freed at %d", j1.Start, j0.Completion)
	}
	if tr.Makespan != j1.Completion || tr.Nodes[0].Jobs != 2 {
		t.Errorf("trace totals wrong: %+v", tr)
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	sentinel := errors.New("session exploded")
	_, err := Run(Config{Nodes: 2, Seed: 1}, altJobs(8),
		func(i, _ int, _ int64) (Exec, error) {
			if i == 3 {
				return Exec{}, sentinel
			}
			return Exec{Cycles: 1}, nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the runner's error", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Errorf("error does not name the failing job: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(Config{}, nil, fixedRunner(1)); err == nil {
		t.Error("empty job list accepted")
	}
	if _, err := Run(Config{}, altJobs(1), nil); err == nil {
		t.Error("nil runner accepted")
	}
}

func TestParsePlacement(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePlacement(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Errorf("ParsePlacement(%q) = %v, %v", p.Name(), got, err)
		}
	}
	for spelling, want := range map[string]string{
		"rr": "round-robin", "ll": "least-loaded", "affinity": "config-affinity",
	} {
		got, err := ParsePlacement(spelling)
		if err != nil || got.Name() != want {
			t.Errorf("ParsePlacement(%q) = %v, %v", spelling, got, err)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestArrivalGapClamped(t *testing.T) {
	// A maximal gap must neither panic (MeanGap+1 overflow) nor wrap the
	// arrival clock for a handful of jobs, in either open-loop process.
	for _, kind := range []ArrivalKind{ArriveUniform, ArrivePoisson} {
		got := expand(t, Arrivals{Kind: kind, MeanGap: ^uint64(0)}, 8, 1)
		prev := uint64(0)
		for i, v := range got {
			if v < prev {
				t.Fatalf("kind %d: arrival clock wrapped at job %d: %d < %d", kind, i, v, prev)
			}
			prev = v
		}
	}
}

// hetero builds a 2-node, 2-class fleet: node 0 is the reference
// workstation, node 1 runs class 1 at double clock.
func heteroConfig() Config {
	return Config{
		NodeConfigs: []NodeConfig{
			{Class: 0},
			{Class: 1, ClockScale: 2},
		},
		Classes: 2,
		Seed:    1,
	}
}

// classRunner gives class c executions c+1 times the base cycle count,
// so tests can tell which profile a node charged.
func classRunner(base uint64) Runner {
	return func(i, class int, _ int64) (Exec, error) {
		return Exec{Cycles: base * uint64(class+1)}, nil
	}
}

func TestHeterogeneousClassesAndClock(t *testing.T) {
	jobs := altJobs(2)
	tr, err := Run(heteroConfig(), jobs, classRunner(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin: job 0 on node 0 (class 0, clock 1 → 1000 cycles),
	// job 1 on node 1 (class 1 profile 2000 cycles, clock 2 → 1000).
	if got := tr.Jobs[0].Cycles; got != 1000 {
		t.Errorf("node 0 service = %d, want 1000", got)
	}
	if got := tr.Jobs[1].Cycles; got != 1000 {
		t.Errorf("node 1 service = %d, want 2000/2 = 1000", got)
	}
	if tr.Nodes[1].Class != 1 || tr.Nodes[1].ClockScale != 2 {
		t.Errorf("node trace lost its configuration: %+v", tr.Nodes[1])
	}
	// Odd service must round up, never truncate to free cycles.
	tr, err = Run(heteroConfig(), jobs, classRunner(1001))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Jobs[1].Cycles; got != 1001 {
		t.Errorf("ceil division lost cycles: %d, want 1001", got)
	}
}

func TestExecuteClassSeedsMatchHomogeneous(t *testing.T) {
	// The per-job derived seed must not depend on the class, so a
	// heterogeneous run stays comparable with the homogeneous one.
	jobs := altJobs(4)
	var homoSeeds, heteroSeeds [4]int64
	if _, err := Execute(Config{Nodes: 2, Seed: 7}, jobs, func(i, _ int, seed int64) (Exec, error) {
		homoSeeds[i] = seed
		return Exec{Cycles: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg := heteroConfig()
	cfg.Seed = 7
	cfg.Workers = 1
	if _, err := Execute(cfg, jobs, func(i, class int, seed int64) (Exec, error) {
		if class == 0 {
			heteroSeeds[i] = seed
		} else if heteroSeeds[i] != seed {
			t.Errorf("job %d: class 1 seed %d != class 0 seed %d", i, seed, heteroSeeds[i])
		}
		return Exec{Cycles: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if homoSeeds != heteroSeeds {
		t.Errorf("per-job seeds drifted between class layouts: %v vs %v", homoSeeds, heteroSeeds)
	}
}

func TestAdmissionShed(t *testing.T) {
	// One node, bound 2, batch arrivals: the first two jobs are admitted,
	// the rest shed.
	jobs := altJobs(5)
	tr, err := Run(Config{Nodes: 1, Seed: 1, Admission: Admission{Bound: 2}},
		jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shed != 3 {
		t.Fatalf("shed = %d, want 3: %+v", tr.Shed, tr.Jobs)
	}
	for _, jt := range tr.Jobs[2:] {
		if !jt.Shed || jt.Node != -1 || jt.Completion != 0 {
			t.Errorf("job %d not recorded as shed: %+v", jt.ID, jt)
		}
	}
	if tr.Nodes[0].Jobs != 2 {
		t.Errorf("node ran %d jobs, want 2", tr.Nodes[0].Jobs)
	}
	// The shed jobs charge nothing: makespan covers only admitted work.
	if want := tr.Jobs[1].Completion; tr.Makespan != want {
		t.Errorf("makespan = %d, want %d", tr.Makespan, want)
	}
}

func TestAdmissionDefer(t *testing.T) {
	// One node, bound 1, defer: jobs serialize, each waiting for the
	// previous completion, and nothing is shed.
	jobs := altJobs(3)
	tr, err := Run(Config{Nodes: 1, Seed: 1, Admission: Admission{Bound: 1, Defer: true}},
		jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shed != 0 || tr.Deferred != 2 {
		t.Fatalf("shed=%d deferred=%d, want 0/2", tr.Shed, tr.Deferred)
	}
	for i := 1; i < 3; i++ {
		if tr.Jobs[i].Start != tr.Jobs[i-1].Completion {
			t.Errorf("job %d started at %d, want at previous completion %d",
				i, tr.Jobs[i].Start, tr.Jobs[i-1].Completion)
		}
		if !tr.Jobs[i].Deferred || tr.Jobs[i].DeferCycles == 0 {
			t.Errorf("job %d defer not recorded: %+v", i, tr.Jobs[i])
		}
	}
	if tr.DeferCycles != tr.Jobs[1].DeferCycles+tr.Jobs[2].DeferCycles {
		t.Errorf("defer cycle sum wrong: %d", tr.DeferCycles)
	}
}

func TestAdmissionDeferRebalances(t *testing.T) {
	// Two nodes, bound 1, round-robin wants node i%2 — but when the
	// chosen node is full the deferral must re-place onto whichever node
	// frees first rather than shed.
	jobs := altJobs(6)
	tr, err := Run(Config{Nodes: 2, Seed: 1, Admission: Admission{Bound: 1, Defer: true}},
		jobs, fixedRunner(100, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shed != 0 {
		t.Fatalf("defer mode shed %d jobs", tr.Shed)
	}
	for _, jt := range tr.Jobs {
		if jt.Node < 0 {
			t.Fatalf("job %d unplaced: %+v", jt.ID, jt)
		}
	}
	// With unequal service times, strict round-robin would idle behind the
	// slow node; the fall-back to whichever node freed first must move at
	// least one job off its round-robin slot.
	diverged := false
	for _, jt := range tr.Jobs {
		if jt.Node != jt.ID%2 {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("defer re-placement never diverged from strict round-robin")
	}
}

func TestWeightedAffinityHugeWeightSaturates(t *testing.T) {
	// A pathological spec weight (2^63) times 2 affinity hits wraps
	// uint64; the score must saturate instead, so the doubly-warm node
	// still outranks a cold one. Four identical 2-circuit jobs must all
	// pin to the node that warmed up first.
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Label: "J", Circuits: []Circuit{
			{Key: key(1), Bytes: 100},
			{Key: key(2), Bytes: 100},
		}}
	}
	tr, err := Run(Config{Nodes: 2, StoreSlots: 2, Seed: 1, Policy: WeightedAffinity(1 << 63)},
		jobs, fixedRunner(100))
	if err != nil {
		t.Fatal(err)
	}
	for _, jt := range tr.Jobs {
		if jt.Node != 0 {
			t.Errorf("job %d diverted to node %d: saturating score lost to a cold node", jt.ID, jt.Node)
		}
	}
	if tr.ColdLoads != 2 {
		t.Errorf("cold loads = %d, want 2 (both circuits fetched once)", tr.ColdLoads)
	}
}

func TestWeightedAffinityBalancesKindsAcrossSpareNodes(t *testing.T) {
	// 2 kinds over 3 nodes with batch arrivals: pure affinity pins each
	// kind to one node and never uses node 2; the weighted hybrid spreads
	// once the backlog difference exceeds the weight, while still beating
	// round-robin's cold-load churn.
	jobs := altJobs(12)
	service := uint64(10_000)
	run := func(pol PlacementPolicy) *Trace {
		tr, err := Run(Config{Nodes: 3, StoreSlots: 1, Seed: 1, Policy: pol},
			jobs, fixedRunner(service))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	aff := run(Affinity())
	rr := run(RoundRobin())
	wa := run(WeightedAffinity(service * 2))
	if aff.Nodes[2].Jobs != 0 {
		t.Fatalf("premise broken: pure affinity used the spare node (%d jobs)", aff.Nodes[2].Jobs)
	}
	if wa.Makespan >= aff.Makespan {
		t.Errorf("weighted makespan %d not below pure affinity %d", wa.Makespan, aff.Makespan)
	}
	if wa.ColdLoads >= rr.ColdLoads {
		t.Errorf("weighted cold loads %d not below round-robin %d", wa.ColdLoads, rr.ColdLoads)
	}
	t.Logf("makespan rr=%d aff=%d weighted=%d; cold loads rr=%d aff=%d weighted=%d",
		rr.Makespan, aff.Makespan, wa.Makespan, rr.ColdLoads, aff.ColdLoads, wa.ColdLoads)
}

// TestExecuteMemo locks the execution memo: jobs sharing a nonzero
// Identity run once per class — the group's first job, with its own
// derived seed, and no cap on the group size — and every member gets
// that profile, so profiles and replayed traces equal the run with no
// identities at every worker count. Unmarked jobs still run alone.
func TestExecuteMemo(t *testing.T) {
	const n, classes = 200, 2
	jobs := altJobs(n)
	// kind 0 and 1 are identity groups of 67 jobs each; kind 2 jobs are
	// unmarked and seed-sensitive.
	kind := func(i int) int { return i % 3 }
	for i := range jobs {
		if kind(i) < 2 {
			jobs[i].Identity = kind(i) + 1
		}
	}
	alone := make([]Job, n)
	copy(alone, jobs)
	for i := range alone {
		alone[i].Identity = 0
	}
	unmarked := 0
	for i := range jobs {
		if jobs[i].Identity == 0 {
			unmarked++
		}
	}
	cfg := Config{Classes: classes, Seed: 42, Policy: Affinity(),
		NodeConfigs: []NodeConfig{{Class: 0}, {Class: 1}, {Class: 0, ClockScale: 2}}}
	var calls [classes * n]atomic.Int32
	var total atomic.Int64
	run := func(i, class int, seed int64) (Exec, error) {
		calls[class*n+i].Add(1)
		total.Add(1)
		e := Exec{Cycles: uint64(1000*(kind(i)+1) + 10*class)}
		if kind(i) == 2 {
			e.Cycles += uint64(i) + uint64(seed&0x7)
		}
		return e, nil
	}
	cfg.Workers = 1
	want, err := Execute(cfg, alone, run)
	if err != nil {
		t.Fatal(err)
	}
	wantTr, err := Replay(cfg, alone, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		for i := range calls {
			calls[i].Store(0)
		}
		total.Store(0)
		var execs atomic.Int64
		cfg.Workers = workers
		cfg.OnExec = func(int, int, Exec) { execs.Add(1) }
		got, err := Execute(cfg, jobs, run)
		cfg.OnExec = nil
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(classes*2 + classes*unmarked); total.Load() != want {
			t.Errorf("workers=%d: %d runner calls, want %d", workers, total.Load(), want)
		}
		for class := 0; class < classes; class++ {
			for i := range jobs {
				// Only each group's first job (indices 0 and 1) and the
				// unmarked jobs may run, once each.
				wantCalls := int32(0)
				if i < 2 || jobs[i].Identity == 0 {
					wantCalls = 1
				}
				if c := calls[class*n+i].Load(); c != wantCalls {
					t.Fatalf("workers=%d: job %d class %d ran %d times, want %d", workers, i, class, c, wantCalls)
				}
			}
		}
		if execs.Load() != classes*n {
			t.Errorf("workers=%d: OnExec fired %d times, want %d", workers, execs.Load(), classes*n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: memoized profiles differ from per-job execution", workers)
		}
		tr, err := Replay(cfg, jobs, got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, wantTr) {
			t.Fatalf("workers=%d: memoized trace differs from per-job execution", workers)
		}
	}

	// A representative's failure names the representative.
	boom := errors.New("boom")
	_, err = Execute(Config{Seed: 1}, jobs, func(i, _ int, _ int64) (Exec, error) {
		if i == 1 {
			return Exec{}, boom
		}
		return Exec{Cycles: 1}, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "job 1 (B)") {
		t.Fatalf("runner error not wrapped with the representative: %v", err)
	}
}
