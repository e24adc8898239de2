package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"protean/internal/rng"
)

// The reference below is the replay as it stood before the index: the
// three policy loops scan every node through the public Fleet view, and
// the defer path scans every node's slotFreeAt. The differential test
// pins the indexed Replay to it trace for trace.

// scanLeastLoaded is least-loaded as a full scan.
type scanLeastLoaded struct{}

func (scanLeastLoaded) Name() string { return "least-loaded" }

func (scanLeastLoaded) Place(f *Fleet, _ *Job) int {
	best := 0
	for n := 1; n < f.NumNodes(); n++ {
		if f.Backlog(n) < f.Backlog(best) {
			best = n
		}
	}
	return best
}

// scanAffinity is config-affinity as a full scan.
type scanAffinity struct{}

func (scanAffinity) Name() string { return "config-affinity" }

func (scanAffinity) Place(f *Fleet, job *Job) int {
	best, bestHits := -1, 0
	for n := 0; n < f.NumNodes(); n++ {
		hits := f.AffinityHits(n, job)
		switch {
		case hits == 0:
			continue
		case best < 0, hits > bestHits,
			hits == bestHits && f.Backlog(n) < f.Backlog(best):
			best, bestHits = n, hits
		}
	}
	if best < 0 {
		return scanLeastLoaded{}.Place(f, job)
	}
	return best
}

// scanWeighted is weighted-affinity as a full scan, scoring every node
// with the policy's own saturating score.
type scanWeighted struct{ weightedAffinity }

func (w scanWeighted) Place(f *Fleet, job *Job) int {
	best := 0
	bestScore := w.score(f.AffinityHits(0, job), f.Backlog(0))
	for n := 1; n < f.NumNodes(); n++ {
		if s := w.score(f.AffinityHits(n, job), f.Backlog(n)); s > bestScore {
			best, bestScore = n, s
		}
	}
	return best
}

// slotFreeAt returns the earliest cycle >= now at which the node's depth
// drops below bound (bound >= 1).
func (ns *nodeState) slotFreeAt(now uint64, bound int) uint64 {
	if ns.depth(now) < bound {
		return now
	}
	return ns.completions[len(ns.completions)-bound]
}

// scanReplay is Replay without the index: it keeps the Fleet view's
// state by hand (freeAt, stores) and finds the defer path's earliest
// slot by scanning. Inputs are assumed valid.
func scanReplay(cfg Config, jobs []Job, execs [][]Exec) (*Trace, error) {
	ncs := cfg.nodeConfigs()
	pol := cfg.Policy
	arrive, err := cfg.Arrivals.times(len(jobs), cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		nodes: make([]nodeState, len(ncs)),
		rand:  rng.New(rng.Derive(cfg.Seed, streamPlacement)),
	}
	f.ix.ids = make(map[Key]int32)
	for i := range jobs {
		for _, c := range jobs[i].Circuits {
			if _, ok := f.ix.ids[c.Key]; !ok {
				f.ix.ids[c.Key] = int32(len(f.ix.ids))
			}
		}
	}
	f.ix.freeAt = make([]uint64, len(ncs))
	for i, nc := range ncs {
		f.nodes[i].cfg = nc
		f.nodes[i].store.slots = nc.StoreSlots
	}
	tr := &Trace{Policy: pol.Name(), Jobs: make([]JobTrace, len(jobs)), Nodes: make([]NodeTrace, len(ncs))}
	for n, nc := range ncs {
		tr.Nodes[n].Class = nc.Class
		tr.Nodes[n].ClockScale = nc.ClockScale
	}
	bound := cfg.Admission.Bound
	for i := range jobs {
		job := &jobs[i]
		now := arrive[i]
		f.now = now
		n := pol.Place(f, job)
		if n < 0 || n >= len(ncs) {
			return nil, fmt.Errorf("scan: policy placed job %d on node %d", i, n)
		}
		jt := JobTrace{ID: i, Label: job.Label, Node: n, Arrival: arrive[i]}
		if bound > 0 && f.nodes[n].depth(now) >= bound {
			if !cfg.Admission.Defer {
				jt.Node, jt.Shed = -1, true
				tr.Shed++
				tr.Jobs[i] = jt
				f.placed++
				continue
			}
			freed, at := 0, f.nodes[0].slotFreeAt(now, bound)
			for cand := 1; cand < len(f.nodes); cand++ {
				if t := f.nodes[cand].slotFreeAt(now, bound); t < at {
					freed, at = cand, t
				}
			}
			if at > now {
				jt.Deferred, jt.DeferCycles = true, at-now
				tr.Deferred++
				tr.DeferCycles += jt.DeferCycles
				now = at
				f.now = now
			}
			n = pol.Place(f, job)
			if n < 0 || n >= len(ncs) {
				return nil, fmt.Errorf("scan: policy placed deferred job %d on node %d", i, n)
			}
			if f.nodes[n].depth(now) >= bound {
				n = freed
			}
			jt.Node = n
		}
		ns := &f.nodes[n]
		clock := uint64(ns.cfg.ClockScale)
		jt.Cycles = (execs[ns.cfg.Class][i].Cycles + clock - 1) / clock
		bw := uint64(ns.cfg.FetchBytesPerCycle)
		for ci, c := range job.Circuits {
			if !distinctAt(job, ci) {
				continue
			}
			if hit, _ := ns.store.touch(f.ix.ids[c.Key]); hit {
				jt.WarmHits++
			} else {
				jt.ColdLoads++
				jt.FetchCycles += (uint64(c.Bytes) + bw - 1) / bw
			}
		}
		jt.Start = max(now, f.ix.freeAt[n])
		jt.Completion = jt.Start + jt.FetchCycles + jt.Cycles
		f.ix.freeAt[n] = jt.Completion
		ns.completions = append(ns.completions, jt.Completion)
		f.placed++
		tr.Jobs[i] = jt
		nt := &tr.Nodes[n]
		nt.Jobs++
		nt.Busy += jt.FetchCycles + jt.Cycles
		nt.ColdLoads += jt.ColdLoads
		nt.WarmHits += jt.WarmHits
		nt.FetchCycles += jt.FetchCycles
		nt.Completion = jt.Completion
		tr.Busy += jt.FetchCycles + jt.Cycles
		tr.ColdLoads += jt.ColdLoads
		tr.WarmHits += jt.WarmHits
		tr.FetchCycles += jt.FetchCycles
		tr.Makespan = max(tr.Makespan, jt.Completion)
	}
	return tr, nil
}

// randomFleet draws one replay input: a heterogeneous fleet, a job mix
// over a small key pool with repeated keys, execution profiles, an
// arrival process and an admission setting. huge makes service times
// large enough that backlogs pass the score's clamp; it turns admission
// off, because only admission relies on completions never wrapping.
func randomFleet(s *rng.Stream, huge bool) (Config, []Job, [][]Exec) {
	between := func(lo, hi int) int { return lo + int(s.Below(uint64(hi-lo+1))) }
	cfg := Config{Seed: int64(s.Next()), Classes: between(1, 2)}
	nodes, nJobs := between(1, 300), between(1, 300)
	if huge {
		nodes = between(1, 4)
		nJobs = between(1, 3*nodes)
	}
	cfg.NodeConfigs = make([]NodeConfig, nodes)
	for n := range cfg.NodeConfigs {
		cfg.NodeConfigs[n] = NodeConfig{
			StoreSlots:         between(1, 6),
			ClockScale:         between(1, 3),
			FetchBytesPerCycle: between(1, 4),
			Class:              between(0, cfg.Classes-1),
		}
	}
	keys := between(1, 12)
	jobs := make([]Job, nJobs)
	for i := range jobs {
		cs := make([]Circuit, between(1, 4))
		for c := range cs {
			cs[c] = Circuit{Key: key(byte(between(1, keys))), Bytes: between(1, 4000)}
		}
		jobs[i] = Job{Label: fmt.Sprintf("j%d", i), Circuits: cs}
	}
	execs := make([][]Exec, cfg.Classes)
	for c := range execs {
		execs[c] = make([]Exec, nJobs)
		for i := range execs[c] {
			execs[c][i].Cycles = uint64(between(1, 20000))
			if huge {
				execs[c][i].Cycles = 1<<61 + s.Below(1<<61)
			}
		}
	}
	gap := uint64(between(1, 3000))
	switch s.Below(4) {
	case 0:
		cfg.Arrivals = Arrivals{Kind: ArriveBatch}
	case 1:
		cfg.Arrivals = Arrivals{Kind: ArriveUniform, MeanGap: gap}
	case 2:
		cfg.Arrivals = Arrivals{Kind: ArrivePoisson, MeanGap: gap}
	default:
		times := make([]uint64, nJobs)
		for i := range times {
			times[i] = s.Below(gap * uint64(nJobs))
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		cfg.Arrivals = Arrivals{Kind: ArriveTrace, Times: times}
	}
	cfg.Admission = Admission{Bound: between(0, 3), Defer: s.Below(2) == 1}
	if huge {
		cfg.Admission = Admission{}
	}
	return cfg, jobs, execs
}

// diffPolicies pairs each built-in policy with its scan reference; the
// weighted pair cycles through weights that include saturating ones.
func diffPolicies(weight uint64) [][2]PlacementPolicy {
	return [][2]PlacementPolicy{
		{RoundRobin(), RoundRobin()},
		{Random(), Random()},
		{LeastLoaded(), scanLeastLoaded{}},
		{Affinity(), scanAffinity{}},
		{WeightedAffinity(weight), scanWeighted{WeightedAffinity(weight).(weightedAffinity)}},
	}
}

// TestReplayIndexMatchesScan is the differential test for the replay
// index: over random fleets, Replay with each built-in policy must
// produce exactly the trace of the full-scan reference — and so must
// Replay driving the scan policies as custom policies, which see the
// index-maintained state only through the public Fleet view.
func TestReplayIndexMatchesScan(t *testing.T) {
	weights := []uint64{0, 1, 700, 1 << 62, 1 << 63, ^uint64(0)}
	s := rng.New(20260417)
	var backwards, deferred, cases int
	for iter := 0; iter < 250; iter++ {
		huge := iter%10 == 9
		cfg, jobs, execs := randomFleet(s, huge)
		for _, pair := range diffPolicies(weights[iter%len(weights)]) {
			cfg.Policy = pair[0]
			got, err := Replay(cfg, jobs, execs)
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, pair[0].Name(), err)
			}
			cfg.Policy = pair[1]
			want, err := scanReplay(cfg, jobs, execs)
			if err != nil {
				t.Fatalf("iter %d %s scan: %v", iter, pair[0].Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %s (nodes %d, jobs %d, admission %+v, arrivals kind %d): indexed replay differs from scan\n%s",
					iter, pair[0].Name(), len(cfg.NodeConfigs), len(jobs), cfg.Admission, cfg.Arrivals.Kind, firstDiff(got, want))
			}
			custom, err := Replay(cfg, jobs, execs)
			if err != nil {
				t.Fatalf("iter %d custom %s: %v", iter, pair[1].Name(), err)
			}
			if !reflect.DeepEqual(custom, want) {
				t.Fatalf("iter %d custom %s: Replay through the public view differs from scan\n%s",
					iter, pair[1].Name(), firstDiff(custom, want))
			}
			cases++
			deferred += want.Deferred
			backwards += nowWentBackwards(want)
		}
	}
	if deferred == 0 || backwards == 0 {
		t.Fatalf("random fleets never exercised the defer path (%d deferrals, %d backward instants)", deferred, backwards)
	}
	t.Logf("%d cases, %d deferrals, %d placements after a deferral at an earlier instant", cases, deferred, backwards)
}

// nowWentBackwards counts jobs that arrive — and so are first placed —
// before the instant the deferred job ahead of them was placed at.
func nowWentBackwards(tr *Trace) int {
	var last uint64
	count := 0
	for _, j := range tr.Jobs {
		if j.Arrival < last {
			count++
		}
		last = j.Arrival + j.DeferCycles
	}
	return count
}

// firstDiff names the first job or node record where two traces differ.
func firstDiff(got, want *Trace) string {
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			return fmt.Sprintf("job %d: got %+v\nwant %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
	for n := range want.Nodes {
		if got.Nodes[n] != want.Nodes[n] {
			return fmt.Sprintf("node %d: got %+v\nwant %+v", n, got.Nodes[n], want.Nodes[n])
		}
	}
	return "aggregates differ"
}

// TestReplayDeferNowGoesBackwards pins the non-monotone instant by hand:
// one node, bound 1, defer. Job 1 arrives at 10 while job 0 runs and is
// deferred to job 0's completion; job 2 arrives at 20 — before the
// instant job 1 was placed at — and must still wait for job 1.
func TestReplayDeferNowGoesBackwards(t *testing.T) {
	jobs := altJobs(3)
	execs := [][]Exec{{{Cycles: 1000}, {Cycles: 1000}, {Cycles: 1000}}}
	for _, pair := range diffPolicies(0) {
		cfg := Config{
			Nodes: 1, Seed: 3, Policy: pair[0],
			Arrivals:  Arrivals{Kind: ArriveTrace, Times: []uint64{0, 10, 20}},
			Admission: Admission{Bound: 1, Defer: true},
		}
		got, err := Replay(cfg, jobs, execs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pair[1]
		want, err := scanReplay(cfg, jobs, execs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s", pair[0].Name(), firstDiff(got, want))
		}
		j1, j2 := got.Jobs[1], got.Jobs[2]
		if nowWentBackwards(got) != 1 || !j2.Deferred || j2.Start != j1.Completion || j2.Arrival+j2.DeferCycles != j1.Completion {
			t.Fatalf("%s: deferral chain wrong: %+v", pair[0].Name(), got.Jobs)
		}
	}
}

// TestWeightedAffinityClampedBacklogsTie: once backlogs clamp at 2^63−1,
// weighted-affinity scores every warm node alike and must take the lowest
// index, not the least raw backlog. Job 0 warms node 0 with a huge
// backlog; job 1 goes to idle node 1, leaving it a smaller but still
// clamped backlog; job 2 finds both warm and clamped and goes to node 0.
func TestWeightedAffinityClampedBacklogsTie(t *testing.T) {
	jobs := altJobs(3)
	for i := range jobs {
		jobs[i].Circuits = []Circuit{{Key: key(1), Bytes: 1}}
	}
	execs := [][]Exec{{{Cycles: 1<<63 + 10}, {Cycles: 1<<63 + 5}, {Cycles: 1}}}
	cfg := Config{Nodes: 2, StoreSlots: 1, Policy: WeightedAffinity(0)}
	got, err := Replay(cfg, jobs, execs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = scanWeighted{weightedAffinity{weight: DefaultAffinityWeight}}
	want, err := scanReplay(cfg, jobs, execs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal(firstDiff(got, want))
	}
	if n := []int{got.Jobs[0].Node, got.Jobs[1].Node, got.Jobs[2].Node}; n[0] != 0 || n[1] != 1 || n[2] != 0 {
		t.Fatalf("placements %v, want [0 1 0]", n)
	}
}

// deferThenOutOfRange is a custom policy that places every job on node 0
// the first time it is asked and out of range when asked again, which
// happens only for a deferred re-placement.
type deferThenOutOfRange struct{ asked map[*Job]bool }

func (deferThenOutOfRange) Name() string { return "defer-then-out-of-range" }

func (p deferThenOutOfRange) Place(_ *Fleet, job *Job) int {
	if p.asked[job] {
		return -1
	}
	p.asked[job] = true
	return 0
}

// TestReplayDeferredOutOfRangeFails: a policy that answers a deferred
// re-placement with an out-of-range node gets the same error as one that
// does so on first placement, not a silent fallback to the freed node.
func TestReplayDeferredOutOfRangeFails(t *testing.T) {
	jobs := altJobs(2)
	execs := [][]Exec{{{Cycles: 1000}, {Cycles: 1000}}}
	cfg := Config{
		Nodes: 1, Policy: deferThenOutOfRange{asked: map[*Job]bool{}},
		Arrivals:  Arrivals{Kind: ArriveTrace, Times: []uint64{0, 10}},
		Admission: Admission{Bound: 1, Defer: true},
	}
	_, err := Replay(cfg, jobs, execs)
	want := "cluster: policy defer-then-out-of-range placed job 1 on node -1 of a 1-node fleet"
	if err == nil || err.Error() != want {
		t.Fatalf("deferred out-of-range placement: err = %v, want %q", err, want)
	}
}

// checkIndex verifies the index's structural invariants: each live group
// is a treap (index order, heap priorities, exact subtree minima) whose
// members all hold the group's key set, every node is in the group it
// records, and the table lists each live group once.
func checkIndex(t *testing.T, ix *index) {
	t.Helper()
	var walk func(fo *forest, tr int32, lo, hi int32, visit func(int32)) uint64
	walk = func(fo *forest, tr int32, lo, hi int32, visit func(int32)) uint64 {
		if tr < 0 {
			return ^uint64(0)
		}
		nd := fo.node[tr]
		if tr <= lo || tr >= hi {
			t.Fatalf("node %d out of index order (%d, %d)", tr, lo, hi)
		}
		for _, c := range []int32{nd.l, nd.r} {
			if c >= 0 && (fo.node[c].pri > nd.pri || fo.node[c].p != tr) {
				t.Fatalf("node %d breaks heap order or parent link under %d", c, tr)
			}
		}
		m := min(fo.val[tr], walk(fo, nd.l, lo, tr, visit), walk(fo, nd.r, tr, hi, visit))
		if nd.min != m {
			t.Fatalf("node %d caches min %d, subtree min %d", tr, nd.min, m)
		}
		visit(tr)
		return m
	}
	members := 0
	for pos, g := range ix.live {
		gr := ix.groups[g]
		if int(gr.live) != pos || gr.root < 0 || ix.byGroup.node[gr.root].p != -1 {
			t.Fatalf("live group %d: %+v at position %d", g, gr, pos)
		}
		walk(&ix.byGroup, gr.root, -1, int32(len(ix.nodes)), func(n int32) {
			members++
			var h uint64
			for _, id := range ix.nodes[n].store.keys {
				h ^= ix.zob[id]
			}
			if ix.group[n] != g || ix.hash[n] != h || gr.hash != h || !ix.sameKeys(int(n), int(gr.root)) {
				t.Fatalf("node %d misfiled in group %d", n, g)
			}
		})
		inTable := 0
		for _, e := range ix.table {
			if e == g {
				inTable++
			}
		}
		if inTable != 1 {
			t.Fatalf("group %d in table %d times", g, inTable)
		}
	}
	if members != len(ix.nodes) {
		t.Fatalf("groups hold %d of %d nodes", members, len(ix.nodes))
	}
	all := 0
	walk(&ix.all, ix.allRoot, -1, int32(len(ix.nodes)), func(int32) { all++ })
	if all != len(ix.nodes) {
		t.Fatalf("fleet-wide tree holds %d of %d nodes", all, len(ix.nodes))
	}
}

// TestIndexChurnBoundedAndAllocationFree drives the index through 65536
// placements over more key sets than nodes, so groups empty and refill
// constantly: the group list must stay within one group per node, the
// invariants must hold throughout, and once stores and completion lists
// have their capacity no index update or query may allocate. The
// colliding run gives every key the same Zobrist hash, so only the
// set-equality check keeps groups apart.
func TestIndexChurnBoundedAndAllocationFree(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("colliding=%v", collide), func(t *testing.T) { indexChurn(t, collide) })
	}
}

func indexChurn(t *testing.T, collide bool) {
	const nodes, keys, steps = 64, 12, 65536
	jobs := make([]Job, keys)
	for k := range jobs {
		jobs[k].Circuits = []Circuit{{Key: key(byte(k))}}
	}
	ns := make([]nodeState, nodes)
	for n := range ns {
		ns[n].store = store{slots: 1 + n%3, keys: make([]int32, 0, 3)}
		ns[n].completions = make([]uint64, 0, 2*steps/nodes)
	}
	var ix index
	ix.init(ns, jobs, 2)
	if collide {
		clear(ix.zob)
	}
	s := rng.New(7)
	var now uint64
	place := func() *Job {
		now += s.Below(40)
		n := int(s.Below(nodes))
		job := &jobs[s.Below(keys)]
		cold := !ix.touch(n, job.Circuits[0].Key)
		done := max(now, ix.freeAt[n]) + 100 + s.Below(200)
		ns[n].completions = append(ns[n].completions, done)
		ix.placed(n, done, cold)
		return job
	}
	// Placements before the first query leave the trees unbuilt; the
	// build then starts from a warm, mixed fleet.
	for range 1000 {
		place()
	}
	ix.build()
	checkIndex(t, &ix)
	step := func() {
		job := place()
		ix.all.best(ix.allRoot, now)
		ix.slots.best(ix.slotRoot, now)
		ix.markJob(job)
		for _, g := range ix.live {
			if ix.hits(int(ix.groups[g].root)) > 0 {
				ix.byGroup.best(ix.groups[g].root, now)
			}
		}
	}
	sets := make(map[uint64]bool) // key sets seen, as bitmasks of ids
	for i := 1000; i < steps/2; i++ {
		step()
		for n := range ns {
			var set uint64
			for _, id := range ns[n].store.keys {
				set |= 1 << id
			}
			sets[set] = true
		}
		if i%4096 == 0 {
			checkIndex(t, &ix)
		}
	}
	if len(sets) <= nodes {
		t.Fatalf("churn visited only %d key sets on %d nodes", len(sets), nodes)
	}
	if allocs := testing.AllocsPerRun(steps/2-1, step); allocs != 0 {
		t.Errorf("index update and query allocate %.2f times per placement", allocs)
	}
	checkIndex(t, &ix)
	if len(ix.groups) > nodes || cap(ix.groups) > nodes || len(ix.table) > 2*2*nodes {
		t.Errorf("index grew past the node count: %d groups (cap %d), table %d", len(ix.groups), cap(ix.groups), len(ix.table))
	}
}
