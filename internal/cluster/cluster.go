// Package cluster simulates a fleet of ProteanARM workstations behind a
// job dispatcher — the paper's single-machine management problem lifted
// one layer up. The paper's central cost, configuration loads under
// thrashing (§5.1, Figure 2), becomes a *placement* problem at fleet
// scale: a node whose bitstream store already holds a job's circuit
// configurations can start it without cold fetches, so a
// configuration-affinity dispatcher saves exactly the traffic the paper's
// CIS fights to avoid within one machine.
//
// The fleet simulation is deterministic by construction, in two phases:
//
//  1. Execution. Every job's session depends only on the *class* of node
//     it could land on (nodes within a class are identical workstations;
//     the modeled bitstream fetch and the node clock are charged
//     analytically in phase 2), so jobs execute once per node class,
//     concurrently on the shared internal/conc worker pool, with per-job
//     seeds derived from the cluster seed (internal/rng). Parallelism
//     changes only wall-clock time, never results.
//  2. Placement replay. Arrivals are expanded from the arrival process,
//     and the dispatcher replays them serially in arrival order: the
//     admission controller checks the chosen node's queue bound (shedding
//     or deferring over-bound work), the placement policy picks a node,
//     the node's LRU bitstream store is consulted for each of the job's
//     configuration keys (cold misses charge the modeled fetch), and the
//     node's timeline advances at the node's clock. All mutable fleet
//     state lives here, on one goroutine.
//
// The result is byte-identical for every Workers setting — the property
// TestClusterPlacementDeterminism enforces through the facade.
package cluster

import (
	"context"
	"fmt"
	"sort"

	"protean/internal/conc"
	"protean/internal/obs"
	"protean/internal/rng"
)

// Key identifies one circuit configuration fleet-wide: core.ConfigKey,
// the SharedProgram bitstream hash. The dispatcher treats it opaquely —
// two jobs carrying equal keys load byte-identical configurations, which
// is what a node's bitstream store can reuse.
type Key [32]byte

// Circuit is one configuration a job will load: its affinity key plus the
// static-bitstream size that must be fetched into a node's store when the
// placement is cold.
type Circuit struct {
	Key   Key
	Bytes int
}

// Job is one unit of fleet work: an opaque payload the Runner knows how
// to execute (by index), annotated with the circuits it loads.
type Job struct {
	Label    string
	Circuits []Circuit
	// Identity groups jobs whose sessions are the same simulation: same
	// configurations, same workload program, same length. By setting a
	// nonzero Identity the caller guarantees that the job's derived seed
	// cannot reach its simulation, so every job of the group has the same
	// execution profile on a node class; Execute then runs the group once
	// per class and copies the profile to every member. 0 means the job
	// always executes alone. The dispatcher only groups what callers
	// marked.
	Identity int
}

// Exec is the node-independent execution profile of one job on one node
// class: the machine cycles its session simulated at that class's
// reference clock.
type Exec struct {
	Cycles uint64
}

// Runner executes job i under node class c with the given derived seed
// and returns its execution profile. Runners are called concurrently from
// the worker pool, once per (job, class) pair; the seed depends only on
// the job, so a one-class fleet reproduces the homogeneous profile
// exactly.
type Runner func(i, class int, seed int64) (Exec, error)

// Seed-derivation streams, so job seeds, arrival jitter and placement
// randomness never correlate.
const (
	streamJob = iota
	streamArrivals
	streamPlacement
)

// MaxMeanGap caps the open-loop mean inter-arrival gap: 2^48 cycles is
// ~33 simulated days at 100 MHz, far beyond any sensible run, and keeps
// the jitter draw (MeanGap+1) and the accumulating arrival clock safely
// inside uint64 for any realistic job count.
const MaxMeanGap = uint64(1) << 48

// MaxTraceArrival caps explicit trace arrival cycles (~1.4 simulated
// years at 100 MHz) — the same no-overflow invariant MaxMeanGap gives
// the generated processes: completion arithmetic (arrival + fetch +
// service, service bounded by the session budget) must never wrap the
// fleet clock.
const MaxTraceArrival = uint64(1) << 52

// ArrivalKind selects the fleet's arrival process.
type ArrivalKind int

const (
	// ArriveDefault keeps the legacy convention: batch when MeanGap is 0,
	// the uniform-jitter open loop otherwise.
	ArriveDefault ArrivalKind = iota
	// ArriveBatch is the closed loop: every job is present at cycle 0.
	ArriveBatch
	// ArriveUniform is the open loop with deterministic uniform jitter
	// over [MeanGap/2, 3·MeanGap/2] — the PR 4 "Poisson-ish" process,
	// kept for byte-compatibility with option-built fleets.
	ArriveUniform
	// ArrivePoisson is the true open-loop Poisson process: exponential
	// inter-arrival gaps with mean MeanGap, drawn by the integer
	// von Neumann sampler (rng.Exp), so queueing behaviour is memoryless
	// without losing bit-reproducibility.
	ArrivePoisson
	// ArriveTrace replays explicit arrival cycles: job i arrives at
	// Times[i]. Times must be nondecreasing and cover every job.
	ArriveTrace
)

// Arrivals selects and parameterises the fleet's arrival process. The
// zero value is batch mode.
type Arrivals struct {
	Kind ArrivalKind
	// MeanGap is the mean inter-arrival gap in cycles for the uniform and
	// Poisson open loops. Gaps above MaxMeanGap are clamped to it.
	MeanGap uint64
	// Times are the explicit arrival cycles for ArriveTrace.
	Times []uint64
}

// times expands the arrival process into one arrival cycle per job.
func (a Arrivals) times(n int, seed int64) ([]uint64, error) {
	out := make([]uint64, n)
	gap := a.MeanGap
	if gap > MaxMeanGap {
		gap = MaxMeanGap
	}
	kind := a.Kind
	if kind == ArriveDefault {
		kind = ArriveBatch
		if a.MeanGap > 0 {
			kind = ArriveUniform
		}
	}
	switch kind {
	case ArriveBatch:
		// all zero
	case ArriveUniform:
		if gap == 0 {
			break
		}
		s := rng.New(rng.Derive(seed, streamArrivals))
		var t uint64
		for i := range out {
			t += gap/2 + s.Below(gap+1)
			out[i] = t
		}
	case ArrivePoisson:
		if gap == 0 {
			break
		}
		s := rng.New(rng.Derive(seed, streamArrivals))
		var t uint64
		for i := range out {
			t += s.Exp(gap)
			out[i] = t
		}
	case ArriveTrace:
		if len(a.Times) < n {
			return nil, fmt.Errorf("cluster: arrival trace has %d times for %d jobs", len(a.Times), n)
		}
		var prev uint64
		for i := range out {
			if a.Times[i] < prev {
				return nil, fmt.Errorf("cluster: arrival trace decreases at job %d (%d after %d)", i, a.Times[i], prev)
			}
			if a.Times[i] > MaxTraceArrival {
				return nil, fmt.Errorf("cluster: trace arrival %d at job %d exceeds the %d-cycle cap", a.Times[i], i, MaxTraceArrival)
			}
			out[i] = a.Times[i]
			prev = a.Times[i]
		}
	default:
		return nil, fmt.Errorf("cluster: unknown arrival kind %d", a.Kind)
	}
	return out, nil
}

// DefaultStoreSlots is the default capacity, in distinct configurations,
// of a node's bitstream store.
const DefaultStoreSlots = 8

// NodeConfig describes one node of a heterogeneous fleet. The zero value
// inherits every fleet-level default.
type NodeConfig struct {
	// StoreSlots caps this node's bitstream store; <= 0 inherits
	// Config.StoreSlots (then DefaultStoreSlots).
	StoreSlots int
	// ClockScale is the node's clock multiplier relative to the reference
	// clock its class's executions were profiled at: a node with
	// ClockScale k completes ceil(cycles/k) fleet-clock cycles of service
	// per profiled cycle. <= 0 means 1.
	ClockScale int
	// FetchBytesPerCycle overrides the node's bitstream fetch bandwidth;
	// <= 0 inherits Config.FetchBytesPerCycle.
	FetchBytesPerCycle int
	// Class indexes this node's execution-profile class (see Runner); it
	// must be < Config.Classes.
	Class int
}

// Admission bounds each node's job queue — the open-loop dispatcher's
// overload valve. The zero value admits everything immediately.
type Admission struct {
	// Bound is the maximum number of jobs a node may hold (queued +
	// running); 0 means unbounded.
	Bound int
	// Defer selects the over-bound policy: false sheds the job (it is
	// rejected and never runs anywhere), true defers it — the job waits
	// until a slot frees somewhere in the fleet and placement re-runs at
	// that instant.
	Defer bool
}

// Config parameterises a fleet run.
type Config struct {
	// Nodes is the fleet size for a homogeneous fleet; <= 0 means 1.
	// NodeConfigs, when non-nil, overrides it with one entry per node.
	Nodes       int
	NodeConfigs []NodeConfig
	// Classes counts the execution-profile classes the Runner understands;
	// <= 0 means 1. Every NodeConfig.Class must be below it.
	Classes int
	// StoreSlots caps how many distinct configurations each node's
	// bitstream store holds (LRU); <= 0 means DefaultStoreSlots.
	StoreSlots int
	// FetchBytesPerCycle is the bandwidth at which a cold bitstream is
	// fetched into a node's store; <= 0 means 1 byte/cycle (the
	// configuration-port bandwidth at scale 1).
	FetchBytesPerCycle int
	// Seed derives every per-job session seed, the arrival jitter and the
	// placement randomness (splitmix, internal/rng).
	Seed int64
	// Workers sizes the job-execution pool; 0 means GOMAXPROCS, 1 runs
	// jobs serially. Fleet output is byte-identical for every setting.
	Workers int
	// Policy places jobs on nodes; nil means RoundRobin().
	Policy PlacementPolicy
	// Arrivals is the arrival process; the zero value is batch mode.
	Arrivals Arrivals
	// Admission bounds per-node queues; the zero value admits everything.
	Admission Admission
	// OnExec, if non-nil, observes each job's execution profile, once
	// per job and class, members of an Identity group included. It is
	// called from the worker goroutines in completion order and must be
	// safe for concurrent use.
	OnExec func(i, class int, e Exec)
}

// nodeConfigs expands the configuration into one NodeConfig per node with
// every default resolved.
func (cfg Config) nodeConfigs() []NodeConfig {
	slots := cfg.StoreSlots
	if slots <= 0 {
		slots = DefaultStoreSlots
	}
	bw := cfg.FetchBytesPerCycle
	if bw <= 0 {
		bw = 1
	}
	ncs := cfg.NodeConfigs
	if ncs == nil {
		n := cfg.Nodes
		if n <= 0 {
			n = 1
		}
		ncs = make([]NodeConfig, n)
	}
	out := make([]NodeConfig, len(ncs))
	for i, nc := range ncs {
		if nc.StoreSlots <= 0 {
			nc.StoreSlots = slots
		}
		if nc.ClockScale <= 0 {
			nc.ClockScale = 1
		}
		if nc.FetchBytesPerCycle <= 0 {
			nc.FetchBytesPerCycle = bw
		}
		out[i] = nc
	}
	return out
}

// classes resolves the execution-class count.
func (cfg Config) classes() int {
	if cfg.Classes <= 0 {
		return 1
	}
	return cfg.Classes
}

// JobTrace records where one job ran and what it cost at the fleet level.
type JobTrace struct {
	ID    int // submission index
	Label string
	// Node is the placement; -1 when the job was shed by admission
	// control.
	Node int
	// Arrival, Start and Completion are fleet-clock cycles: Start waits
	// for the node to drain its queue, Completion adds the cold fetches
	// and the job's service time at the node's clock. Both are 0 for shed
	// jobs.
	Arrival, Start, Completion uint64
	// Cycles is the job's service time as charged on its node (the class
	// execution profile divided by the node clock).
	Cycles uint64
	// ColdLoads counts configurations fetched into the node's store for
	// this job; WarmHits counts configurations already resident —
	// the affinity dispatcher's currency.
	ColdLoads, WarmHits uint64
	// FetchCycles is the modeled cost of the cold fetches.
	FetchCycles uint64
	// Shed reports that admission control rejected the job outright.
	Shed bool
	// Deferred reports that admission control held the job back;
	// DeferCycles is how long it waited before placement re-ran.
	Deferred    bool
	DeferCycles uint64
}

// NodeTrace aggregates one node's fleet activity.
type NodeTrace struct {
	Jobs                int
	Class               int    // execution-profile class
	ClockScale          int    // node clock multiplier
	Busy                uint64 // service + fetch cycles charged to the node
	ColdLoads, WarmHits uint64
	FetchCycles         uint64
	Completion          uint64 // cycle the node finally went idle, 0 if never used
}

// Trace is the outcome of a fleet run.
type Trace struct {
	Policy string
	Jobs   []JobTrace // in submission order
	Nodes  []NodeTrace
	// Makespan is the cycle at which the last admitted job completed.
	Makespan uint64
	// Busy is total node-busy time; ColdLoads/WarmHits/FetchCycles sum
	// the per-job fleet-level configuration traffic.
	Busy                uint64
	ColdLoads, WarmHits uint64
	FetchCycles         uint64
	// Shed and Deferred count admission-control outcomes; DeferCycles
	// sums the per-job deferral waits.
	Shed, Deferred int
	DeferCycles    uint64
}

// store is a node's bitstream store: an LRU set of interned
// configuration keys (see index.ids).
type store struct {
	slots int
	keys  []int32 // least recently used first
}

// touch looks key id up, refreshing recency. It reports a hit; on a miss
// the key is inserted, evicting the least recently used key if the store
// is full, and evicted names that key (-1 when nothing was evicted).
func (st *store) touch(id int32) (hit bool, evicted int32) {
	for i, have := range st.keys {
		if have == id {
			copy(st.keys[i:], st.keys[i+1:])
			st.keys[len(st.keys)-1] = id
			return true, -1
		}
	}
	evicted = -1
	if len(st.keys) >= st.slots {
		evicted = st.keys[0]
		copy(st.keys, st.keys[1:])
		st.keys = st.keys[:len(st.keys)-1]
	}
	st.keys = append(st.keys, id)
	return false, evicted
}

// holds reports whether key id is resident without refreshing recency.
func (st *store) holds(id int32) bool {
	for _, have := range st.keys {
		if have == id {
			return true
		}
	}
	return false
}

// nodeState is one node's mutable dispatcher state during replay; the
// cycle its queue drains lives in the index (index.freeAt).
type nodeState struct {
	cfg   NodeConfig
	store store
	// completions lists the completion cycle of every job placed here, in
	// placement order (nondecreasing: the node serves FIFO); admission
	// control derives queue depths from it.
	completions []uint64
}

// depth returns the node's queue depth (queued + running) at cycle now.
// A deferred placement can probe instants later than the next arrival, so
// depth must not assume monotonic queries: it binary-searches the sorted
// completion list instead of keeping a cursor.
func (ns *nodeState) depth(now uint64) int {
	done := sort.Search(len(ns.completions), func(i int) bool { return ns.completions[i] > now })
	return len(ns.completions) - done
}

// Fleet is the dispatcher's read-only view of the nodes at one placement
// instant. PlacementPolicy implementations query it; all mutation happens
// in the replay loop.
type Fleet struct {
	nodes  []nodeState
	now    uint64 // arrival cycle of the job being placed
	placed int
	rand   *rng.Stream
	ix     index
}

// NumNodes returns the fleet size.
func (f *Fleet) NumNodes() int { return len(f.nodes) }

// Placed returns how many jobs have been placed so far.
func (f *Fleet) Placed() int { return f.placed }

// Backlog returns how many cycles of queued work node n has at the
// current placement instant.
func (f *Fleet) Backlog(n int) uint64 {
	if f.ix.freeAt[n] <= f.now {
		return 0
	}
	return f.ix.freeAt[n] - f.now
}

// ClockScale returns node n's clock multiplier, so capability-aware
// policies can weigh speed as well as locality.
func (f *Fleet) ClockScale(n int) int { return f.nodes[n].cfg.ClockScale }

// Holds reports whether node n's bitstream store holds key k.
func (f *Fleet) Holds(n int, k Key) bool {
	id, ok := f.ix.ids[k]
	return ok && f.nodes[n].store.holds(id)
}

// AffinityHits counts how many of the job's distinct configurations node
// n already holds.
func (f *Fleet) AffinityHits(n int, job *Job) int {
	hits := 0
	for i, c := range job.Circuits {
		if distinctAt(job, i) && f.Holds(n, c.Key) {
			hits++
		}
	}
	return hits
}

// Rand is the deterministic placement stream stochastic policies draw
// from; it is seeded from the cluster seed, never from wall-clock state.
func (f *Fleet) Rand() *rng.Stream { return f.rand }

// distinctAt reports whether job.Circuits[i] is the first occurrence of
// its key, so per-job accounting counts each configuration once. Jobs
// carry a handful of circuits, so the scan beats allocating a set.
func distinctAt(job *Job, i int) bool {
	for j := 0; j < i; j++ {
		if job.Circuits[j].Key == job.Circuits[i].Key {
			return false
		}
	}
	return true
}

// Run simulates the fleet: every job executes once per node class on the
// worker pool (Execute), then the dispatcher replays the arrival sequence
// serially through admission control and the placement policy (Replay).
// The first job error cancels the run and is returned.
func Run(cfg Config, jobs []Job, run Runner) (*Trace, error) {
	execs, err := Execute(cfg, jobs, run)
	if err != nil {
		return nil, err
	}
	return Replay(cfg, jobs, execs)
}

// Execute is phase 1 alone: run every job once per node class,
// concurrently, and return the execution profiles indexed
// [class][job]. Executions are placement-independent, so one Execute can
// feed any number of Replay calls — that is how the placement sweep
// compares policies on one set of simulations instead of re-simulating
// per policy. The derived seed depends only on the job index, never the
// class, so heterogeneous fleets stay comparable with homogeneous ones.
// Jobs sharing a nonzero Identity execute once per class: the group's
// first job in submission order runs with its own derived seed and its
// profile is copied to every member, so the sessions run — classes ×
// distinct identities, plus classes × unmarked jobs — do not depend on
// Workers.
func Execute(cfg Config, jobs []Job, run Runner) ([][]Exec, error) {
	if run == nil {
		return nil, fmt.Errorf("cluster: nil runner")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs submitted")
	}
	classes := cfg.classes()
	groups := identityGroups(jobs)
	cells := make([]func() (Exec, error), 0, classes*len(groups))
	for class := 0; class < classes; class++ {
		for _, g := range groups {
			i := g[0]
			seed := rng.Derive(cfg.Seed, streamJob, uint64(i))
			cells = append(cells, func() (Exec, error) {
				var e Exec
				var err error
				obs.Task(context.Background(), "fleet-job", fmt.Sprintf("%s/c%d", jobs[i].Label, class), func() {
					e, err = run(i, class, seed)
				})
				if err != nil {
					return Exec{}, fmt.Errorf("cluster: job %d (%s) class %d: %w", i, jobs[i].Label, class, err)
				}
				if cfg.OnExec != nil {
					for _, m := range g {
						cfg.OnExec(m, class, e)
					}
				}
				return e, nil
			})
		}
	}
	outs, err := conc.Map(cfg.Workers, cells)
	if err != nil {
		return nil, err
	}
	out := make([][]Exec, classes)
	for class := range out {
		out[class] = make([]Exec, len(jobs))
		for gi, g := range groups {
			for _, m := range g {
				out[class][m] = outs[class*len(groups)+gi]
			}
		}
	}
	return out, nil
}

// identityGroups partitions the job indices into execution groups: one
// per unmarked job and one per nonzero Identity, members in index
// order, groups ordered by their first member.
func identityGroups(jobs []Job) [][]int {
	at := make(map[int]int) // Identity -> index into groups
	var groups [][]int
	for i := range jobs {
		id := jobs[i].Identity
		if id != 0 {
			if g, ok := at[id]; ok {
				groups[g] = append(groups[g], i)
				continue
			}
			at[id] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// Replay is phase 2 alone: expand the arrival process and replay
// admission and placement serially over precomputed execution profiles.
// It is deterministic and cheap — all simulation cost lives in Execute.
func Replay(cfg Config, jobs []Job, execs [][]Exec) (*Trace, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs submitted")
	}
	classes := cfg.classes()
	if len(execs) != classes {
		return nil, fmt.Errorf("cluster: %d execution classes for %d node classes", len(execs), classes)
	}
	for class, ce := range execs {
		if len(ce) != len(jobs) {
			return nil, fmt.Errorf("cluster: class %d has %d execution profiles for %d jobs", class, len(ce), len(jobs))
		}
	}
	ncs := cfg.nodeConfigs()
	for n, nc := range ncs {
		if nc.Class < 0 || nc.Class >= classes {
			return nil, fmt.Errorf("cluster: node %d has class %d of %d", n, nc.Class, classes)
		}
	}
	if cfg.Admission.Bound < 0 {
		return nil, fmt.Errorf("cluster: negative admission bound %d", cfg.Admission.Bound)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = RoundRobin()
	}

	arrive, err := cfg.Arrivals.times(len(jobs), cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		nodes: make([]nodeState, len(ncs)),
		rand:  rng.New(rng.Derive(cfg.Seed, streamPlacement)),
	}
	for i, nc := range ncs {
		f.nodes[i].cfg = nc
		f.nodes[i].store.slots = nc.StoreSlots
	}
	bound := cfg.Admission.Bound
	slotBound := 0
	if cfg.Admission.Defer {
		slotBound = bound
	}
	f.ix.init(f.nodes, jobs, slotBound)
	tr := &Trace{
		Policy: pol.Name(),
		Jobs:   make([]JobTrace, len(jobs)),
		Nodes:  make([]NodeTrace, len(ncs)),
	}
	for n, nc := range ncs {
		tr.Nodes[n].Class = nc.Class
		tr.Nodes[n].ClockScale = nc.ClockScale
	}
	for i := range jobs {
		job := &jobs[i]
		now := arrive[i]
		f.now = now
		n := pol.Place(f, job)
		if n < 0 || n >= len(ncs) {
			return nil, fmt.Errorf("cluster: policy %s placed job %d on node %d of a %d-node fleet",
				pol.Name(), i, n, len(ncs))
		}
		jt := JobTrace{ID: i, Label: job.Label, Node: n, Arrival: arrive[i]}
		if bound > 0 && f.nodes[n].depth(now) >= bound {
			if !cfg.Admission.Defer {
				jt.Node = -1
				jt.Shed = true
				tr.Shed++
				tr.Jobs[i] = jt
				f.placed++
				continue
			}
			// Defer: wait for the earliest slot anywhere in the fleet,
			// then re-run placement at that instant; if the policy still
			// insists on a full node, fall back to the node that freed.
			// A slot already free elsewhere (at == now) is a diversion,
			// not a deferral — the job never waited, so it does not
			// count toward the Deferred statistics.
			freed := f.ix.slots.best(f.ix.slotRoot, now)
			at := max(f.ix.slot[freed], now)
			if at > now {
				jt.Deferred = true
				jt.DeferCycles = at - now
				tr.Deferred++
				tr.DeferCycles += jt.DeferCycles
				now = at
				f.now = now
			}
			n = pol.Place(f, job)
			if n < 0 || n >= len(ncs) {
				return nil, fmt.Errorf("cluster: policy %s placed job %d on node %d of a %d-node fleet",
					pol.Name(), i, n, len(ncs))
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
			if f.ix.touch(n, c.Key) {
				jt.WarmHits++
			} else {
				jt.ColdLoads++
				jt.FetchCycles += (uint64(c.Bytes) + bw - 1) / bw
			}
		}
		jt.Start = max(now, f.ix.freeAt[n])
		jt.Completion = jt.Start + jt.FetchCycles + jt.Cycles
		ns.completions = append(ns.completions, jt.Completion)
		f.ix.placed(n, jt.Completion, jt.ColdLoads > 0)
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
		if jt.Completion > tr.Makespan {
			tr.Makespan = jt.Completion
		}
	}
	return tr, nil
}
