package protean

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"

	"protean/internal/cluster"
	"protean/internal/obs"
)

// Scenario is the declarative, JSON-serializable description of one
// complete run: a fleet of (possibly heterogeneous) workstations, an
// arrival process, an admission-control policy, a placement policy and
// the job list. It is the single source of truth the whole system
// executes from — the functional options on New and NewCluster are sugar
// that populates an equivalent Scenario, and protean.Start is the one
// entry point that runs one (a Session is simply a fleet of one).
//
// Scenarios round-trip through JSON (MarshalJSON / LoadScenario), so a
// run can be described in a spec file, checked into a repo, replayed by
// cmd/proteansim -scenario, and swept by the experiment harness — the
// portable configuration surface the reconfigurable-platform frameworks
// literature asks for instead of imperative wiring.
type Scenario struct {
	// Seed derives every per-job session seed, the arrival jitter and
	// the placement randomness; a Scenario is a pure function of its
	// fields.
	Seed int64 `json:"seed,omitempty"`
	// Workers sizes the host-side job-execution pool; 0 means GOMAXPROCS,
	// 1 runs jobs serially. Results are byte-identical for every setting.
	Workers int `json:"workers,omitempty"`
	// Lanes is a retired host-side knob: any nonzero value is rejected.
	//
	// Deprecated: identical jobs now always execute once per node class
	// when that cannot change results (see DESIGN.md §12), so there is
	// nothing left to tune. Leave Lanes unset.
	Lanes int `json:"lanes,omitempty"`
	// Nodes describes the fleet, one spec per node class instance.
	Nodes []NodeSpec `json:"nodes"`
	// Arrivals selects the arrival process; the zero value is batch.
	Arrivals ArrivalSpec `json:"arrivals,omitzero"`
	// Admission bounds per-node queues; the zero value admits everything.
	Admission AdmissionSpec `json:"admission,omitzero"`
	// Placement names the dispatcher policy; the zero value is
	// round-robin.
	Placement PlacementSpec `json:"placement,omitzero"`
	// Jobs is the submitted work, in arrival order.
	Jobs []JobSpec `json:"jobs"`
	// TraceOut, when set, writes the fleet timeline as Chrome trace-event
	// JSON to this file path (open it in Perfetto): one track per node
	// with fetch and exec spans, plus a dispatcher track with defer spans
	// and shed instants. With several replayed policies
	// (WithRunPlacements) the first policy's timeline is written.
	// Timestamps are modeled cycles, emitted replay-side, so the file is
	// byte-identical at any Workers setting.
	TraceOut string `json:"trace_out,omitempty"`
	// Metrics attaches a deterministic metrics snapshot to each
	// FleetResult (see FleetResult.Metrics).
	Metrics bool `json:"metrics,omitempty"`
}

// NodeSpec describes one kind of workstation in the fleet.
type NodeSpec struct {
	// Count replicates this spec; 0 means 1.
	Count int `json:"count,omitempty"`
	// StoreSlots caps the node's bitstream store (LRU, in distinct
	// configurations); 0 means the fleet default (8).
	StoreSlots int `json:"store_slots,omitempty"`
	// ClockScale is the node's clock multiplier relative to the
	// reference workstation: a ClockScale-k node finishes the same
	// session in 1/k of the fleet-clock cycles. 0 means 1.
	ClockScale int `json:"clock_scale,omitempty"`
	// Session configures the node's kernel and machine — the same knobs
	// as the Session options, declaratively.
	Session SessionSpec `json:"session,omitzero"`
}

// SessionSpec is the serializable form of the Session options: every
// modeled knob of New, one field per option. The zero value is the
// paper's default machine. It is a comparable value — node specs with
// equal sessions share one execution-profile class.
type SessionSpec struct {
	Scale        int       `json:"scale,omitempty"`          // WithScale
	Quantum      uint32    `json:"quantum,omitempty"`        // WithQuantum (0 = scaled 10 ms)
	Policy       string    `json:"policy,omitempty"`         // WithPolicy, by ParsePolicy name
	SoftDispatch bool      `json:"soft_dispatch,omitempty"`  // WithSoftDispatch
	Sharing      bool      `json:"sharing,omitempty"`        // WithSharing
	FullReadback bool      `json:"full_readback,omitempty"`  // WithFullReadback
	PageInCycles uint32    `json:"page_in_cycles,omitempty"` // WithPageInCycles
	AtomicCDP    bool      `json:"atomic_cdp,omitempty"`     // WithAtomicCDP
	MaxFaults    uint64    `json:"max_faults,omitempty"`     // WithMaxFaults
	TLB1Entries  int       `json:"tlb1_entries,omitempty"`   // WithTLB1Entries
	PFUs         int       `json:"pfus,omitempty"`           // WithPFUs (0 = 4)
	Budget       uint64    `json:"budget,omitempty"`         // WithBudget
	LintWarnings bool      `json:"lint_warnings,omitempty"`  // WithLintWarnings
	Costs        CostModel `json:"costs,omitzero"`           // WithCostModel (zero = scaled defaults)
}

// Arrival process names for ArrivalSpec.Process.
const (
	ArrivalBatch   = "batch"
	ArrivalUniform = "uniform"
	ArrivalPoisson = "poisson"
	ArrivalTrace   = "trace"
)

// ArrivalSpec selects the fleet's arrival process.
type ArrivalSpec struct {
	// Process is one of "batch" (closed loop, everything at cycle 0 —
	// the default), "uniform" (open loop, deterministic uniform jitter
	// over [MeanGap/2, 3·MeanGap/2] — the legacy WithOpenLoop process),
	// "poisson" (open loop, exponential gaps from the integer-arithmetic
	// rng.Exp sampler) or "trace" (explicit arrival cycles).
	Process string `json:"process,omitempty"`
	// MeanGap is the mean inter-arrival gap in cycles for the open-loop
	// processes.
	MeanGap uint64 `json:"mean_gap,omitempty"`
	// Times are the explicit arrival cycles for "trace", nondecreasing,
	// one per job (a longer trace covers a shorter job list).
	Times []uint64 `json:"times,omitempty"`
}

// Admission policy names for AdmissionSpec.Policy.
const (
	AdmissionShed  = "shed"
	AdmissionDefer = "defer"
)

// AdmissionSpec bounds per-node job queues — the open-loop fleet's
// overload valve. The zero value admits every arrival immediately.
type AdmissionSpec struct {
	// Bound is the maximum number of jobs a node may hold, queued plus
	// running; 0 means unbounded.
	Bound int `json:"bound,omitempty"`
	// Policy is "shed" (an over-bound job is rejected and never runs;
	// the default when Bound > 0) or "defer" (the job waits for the
	// first free slot anywhere in the fleet and placement re-runs).
	Policy string `json:"policy,omitempty"`
}

// PlacementSpec names the dispatcher policy.
type PlacementSpec struct {
	// Policy is a ParsePlacement name: "round-robin" (the default),
	// "random", "least-loaded", "config-affinity" or
	// "weighted-affinity".
	Policy string `json:"policy,omitempty"`
	// Weight tunes "weighted-affinity": the score is
	// weight·affinityHits − backlogCycles, so weight is what one warm
	// configuration is worth in cycles of queueing. 0 means
	// DefaultAffinityWeight.
	Weight uint64 `json:"weight,omitempty"`
}

// DefaultAffinityWeight is the weighted-affinity weight used when
// PlacementSpec.Weight is 0.
const DefaultAffinityWeight = cluster.DefaultAffinityWeight

// MaxScenarioNodes and MaxScenarioJobs cap the Count-expanded fleet and
// job list, so a typo'd (or hostile) spec fails validation instead of
// exhausting memory while "just validating". Both are far beyond any
// simulation a single host could usefully run.
const (
	MaxScenarioNodes = 1 << 12
	MaxScenarioJobs  = 1 << 16
)

// MaxScenarioItems caps a job's work-unit count. Resolving a job builds
// its workload template, and the built-in builders compute their
// expected checksum in O(items) — so without a cap a hostile spec could
// stall Validate (or LoadScenario) arbitrarily long before any
// simulation runs. The bound is ~16x the largest paper-scale default
// (alpha's 4.3M work units at scale 1).
const MaxScenarioItems = 1 << 26

// JobSpec is one submitted job: instances of a registered workload that
// run together in a single session on whichever node the dispatcher
// picks.
type JobSpec struct {
	// Workload is the registry name (see Workloads).
	Workload string `json:"workload"`
	// Instances run concurrently within the job's session; 0 means 1.
	Instances int `json:"instances,omitempty"`
	// Items is the work-unit count per instance; 0 means the workload's
	// default at the reference (first) node spec's scale.
	Items int `json:"items,omitempty"`
	// Count submits this job spec repeatedly; 0 means 1.
	Count int `json:"count,omitempty"`
}

// Validate checks the scenario without running it: it resolves every
// spec field exactly as Start would and reports the first problem (zero
// nodes, unknown placement policy or workload, negative queue bound,
// malformed arrival process, unbuildable session options, ...).
func (sc Scenario) Validate() error {
	_, err := sc.resolve(startConfig{})
	return err
}

// options expands a SessionSpec into the equivalent Session options — the
// exact constructors an imperative caller would have used, so a
// spec-built session is bit-identical to an option-built one.
func (ss SessionSpec) options() ([]Option, error) {
	opts := []Option{
		WithScale(ss.Scale),
		WithQuantum(ss.Quantum),
		WithSoftDispatch(ss.SoftDispatch),
		WithSharing(ss.Sharing),
		WithFullReadback(ss.FullReadback),
		WithPageInCycles(ss.PageInCycles),
		WithAtomicCDP(ss.AtomicCDP),
		WithMaxFaults(ss.MaxFaults),
		WithTLB1Entries(ss.TLB1Entries),
		WithBudget(ss.Budget),
	}
	if ss.Policy != "" {
		pol, err := ParsePolicy(ss.Policy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithPolicy(pol))
	}
	if ss.PFUs != 0 {
		opts = append(opts, WithPFUs(ss.PFUs))
	}
	if ss.LintWarnings {
		opts = append(opts, WithLintWarnings())
	}
	if ss.Costs != (CostModel{}) {
		opts = append(opts, WithCostModel(ss.Costs))
	}
	// Surface bad values (negative TLB sizes, ...) at spec time.
	var probe config
	for _, opt := range opts {
		if err := opt(&probe); err != nil {
			return nil, err
		}
	}
	return opts, nil
}

// spec is the inverse of SessionSpec.options: it snapshots a resolved
// option configuration as the serializable spec, dropping the
// non-modeled debugging extras (trace, progress sink, disassembly) that
// extraOptions carries instead.
func (c config) spec() SessionSpec {
	ss := SessionSpec{
		Scale:        c.scale.Factor,
		Quantum:      c.quantum,
		Policy:       c.policy.String(),
		SoftDispatch: c.soft,
		Sharing:      c.sharing,
		FullReadback: c.fullReadback,
		PageInCycles: c.pageIn,
		AtomicCDP:    c.atomicCDP,
		MaxFaults:    c.maxFaults,
		TLB1Entries:  c.tlb1,
		PFUs:         c.pfus,
		Budget:       c.budget,
		LintWarnings: c.lintWarnings,
	}
	if c.costsSet {
		ss.Costs = c.costs
	}
	return ss
}

// extraOptions rebuilds the non-modeled session extras of a resolved
// configuration — the debugging aids a Scenario deliberately cannot
// express, re-applied per job session by the option-built cluster path.
func (c config) extraOptions() []Option {
	var out []Option
	if c.traceCap > 0 {
		out = append(out, WithTrace(c.traceCap))
	}
	if c.sink != nil {
		out = append(out, WithProgress(c.sink))
	}
	if c.disasmW != nil && c.disasmN > 0 {
		out = append(out, WithDisasm(c.disasmW, c.disasmN))
	}
	return out
}

// resolve turns an ArrivalSpec into the cluster's arrival process.
func (as ArrivalSpec) resolve() (cluster.Arrivals, error) {
	switch as.Process {
	case "", ArrivalBatch:
		if as.MeanGap != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: batch arrivals take no mean gap (got %d); use process %q", as.MeanGap, ArrivalUniform)
		}
		if len(as.Times) != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: batch arrivals take no times; use process %q", ArrivalTrace)
		}
		return cluster.Arrivals{Kind: cluster.ArriveBatch}, nil
	case ArrivalUniform, ArrivalPoisson:
		if as.MeanGap == 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: %s arrivals need a positive mean gap", as.Process)
		}
		if as.MeanGap > cluster.MaxMeanGap {
			return cluster.Arrivals{}, fmt.Errorf("protean: mean gap %d exceeds the %d-cycle cap", as.MeanGap, cluster.MaxMeanGap)
		}
		if len(as.Times) != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: %s arrivals take no times", as.Process)
		}
		kind := cluster.ArriveUniform
		if as.Process == ArrivalPoisson {
			kind = cluster.ArrivePoisson
		}
		return cluster.Arrivals{Kind: kind, MeanGap: as.MeanGap}, nil
	case ArrivalTrace:
		if as.MeanGap != 0 {
			return cluster.Arrivals{}, fmt.Errorf("protean: trace arrivals take no mean gap")
		}
		for i, t := range as.Times {
			if i > 0 && t < as.Times[i-1] {
				return cluster.Arrivals{}, fmt.Errorf("protean: arrival trace decreases at index %d", i)
			}
			if t > cluster.MaxTraceArrival {
				return cluster.Arrivals{}, fmt.Errorf("protean: trace arrival %d at index %d exceeds the %d-cycle cap", t, i, cluster.MaxTraceArrival)
			}
		}
		return cluster.Arrivals{Kind: cluster.ArriveTrace, Times: as.Times}, nil
	}
	return cluster.Arrivals{}, fmt.Errorf("protean: unknown arrival process %q (want %s, %s, %s or %s)",
		as.Process, ArrivalBatch, ArrivalUniform, ArrivalPoisson, ArrivalTrace)
}

// resolve turns an AdmissionSpec into the cluster's admission control.
func (as AdmissionSpec) resolve() (cluster.Admission, error) {
	if as.Bound < 0 {
		return cluster.Admission{}, fmt.Errorf("protean: admission bound must be >= 0, got %d", as.Bound)
	}
	switch as.Policy {
	case "":
		// Shed is the default over-bound policy; no bound, no policy.
		return cluster.Admission{Bound: as.Bound}, nil
	case AdmissionShed, AdmissionDefer:
		if as.Bound == 0 {
			return cluster.Admission{}, fmt.Errorf("protean: admission policy %q needs a positive bound", as.Policy)
		}
		return cluster.Admission{Bound: as.Bound, Defer: as.Policy == AdmissionDefer}, nil
	}
	return cluster.Admission{}, fmt.Errorf("protean: unknown admission policy %q (want %s or %s)",
		as.Policy, AdmissionShed, AdmissionDefer)
}

// resolve turns a PlacementSpec into a policy value.
func (ps PlacementSpec) resolve() (PlacementPolicy, error) {
	name := ps.Policy
	if name == "" {
		name = "round-robin"
	}
	pol, err := cluster.ParsePlacement(name)
	if err != nil {
		return nil, fmt.Errorf("protean: %w", err)
	}
	if pol.Name() == "weighted-affinity" {
		return cluster.WeightedAffinity(ps.Weight), nil
	}
	if ps.Weight != 0 {
		return nil, fmt.Errorf("protean: placement weight applies only to weighted-affinity, not %q", pol.Name())
	}
	return pol, nil
}

// placementSpecOf snapshots a policy value as its spec, preserving the
// weighted-affinity tunable. Custom policies snapshot by Name only —
// such a spec documents the run but will not reload.
func placementSpecOf(p PlacementPolicy) PlacementSpec {
	ps := PlacementSpec{Policy: p.Name()}
	if w, ok := p.(interface{ Weight() uint64 }); ok {
		ps.Weight = w.Weight()
	}
	return ps
}

// fleetJob is one resolved job: a workload to run somewhere in the
// fleet, plus its dispatcher-visible circuit identity.
type fleetJob struct {
	workload  string
	instances int
	items     int
	job       cluster.Job
	// rep is the index of the job whose execution stands for this one:
	// the first job of its identity group (see cluster.Job.Identity), or
	// the job itself.
	rep int
}

// resolvedScenario is a Scenario after every default, name and template
// has been resolved — the executable form.
type resolvedScenario struct {
	ccfg      cluster.Config
	nodeCfgs  []cluster.NodeConfig
	classes   int
	classOpts [][]Option
	jobs      []fleetJob
	policies  []PlacementPolicy
	sink      Sink
	extras    []Option
	// traceW / tracePath route the Chrome fleet timeline (an explicit
	// writer beats the spec's file path); metrics turns on FleetResult
	// metrics snapshots.
	traceW    io.Writer
	tracePath string
	metrics   bool
}

// StartOption adjusts how Start executes a Scenario, carrying the
// runtime-only concerns a serializable spec cannot: progress sinks,
// debugging session extras, and placement-policy values (including
// custom implementations) to replay under.
type StartOption func(*startConfig) error

type startConfig struct {
	sink     Sink
	extras   []Option
	policies []PlacementPolicy
	traceW   io.Writer
	metrics  bool
}

// WithRunProgress streams structured fleet events (one EventJobDone per
// executed job and class, one EventFleetDone per replayed policy) to
// sink; the sink must be safe for concurrent use.
func WithRunProgress(sink Sink) StartOption {
	return func(c *startConfig) error {
		c.sink = sink
		return nil
	}
}

// WithRunPlacements replays placement under the given policy values
// instead of the scenario's named Placement — the hook for paired policy
// comparisons (job sessions execute once, each policy replays over the
// same executions; Runner.WaitAll returns one FleetResult per policy)
// and for custom PlacementPolicy implementations that have no spec name.
func WithRunPlacements(policies ...PlacementPolicy) StartOption {
	return func(c *startConfig) error {
		for _, p := range policies {
			if p == nil {
				return fmt.Errorf("protean: nil placement policy")
			}
		}
		c.policies = append(c.policies, policies...)
		return nil
	}
}

// WithRunTrace writes the fleet timeline of the first replayed policy
// to w as Chrome trace-event JSON — the writer-valued twin of the
// Scenario.TraceOut file path (an explicit writer takes precedence when
// both are set). Emission is replay-side only, so the bytes are
// identical at any Workers setting.
func WithRunTrace(w io.Writer) StartOption {
	return func(c *startConfig) error {
		if w == nil {
			return fmt.Errorf("protean: trace output writer must be non-nil")
		}
		c.traceW = w
		return nil
	}
}

// WithRunMetrics attaches a deterministic metrics snapshot to each
// FleetResult — the option-valued twin of Scenario.Metrics.
func WithRunMetrics() StartOption {
	return func(c *startConfig) error {
		c.metrics = true
		return nil
	}
}

// WithRunSessionOptions applies extra options to every job session —
// meant for the non-modeled debugging aids (WithTrace, WithProgress,
// WithDisasm) that a Scenario deliberately cannot express. Passing
// modeled options here forfeits the spec's reproducibility contract.
func WithRunSessionOptions(opts ...Option) StartOption {
	return func(c *startConfig) error {
		c.extras = append(c.extras, opts...)
		return nil
	}
}

// resolve validates the scenario and expands it into executable form.
func (sc Scenario) resolve(scfg startConfig) (*resolvedScenario, error) {
	if len(sc.Nodes) == 0 {
		return nil, fmt.Errorf("protean: scenario needs at least one node spec")
	}
	if sc.Lanes != 0 {
		return nil, fmt.Errorf("protean: lanes is retired and must be unset, got %d", sc.Lanes)
	}
	rs := &resolvedScenario{
		sink: scfg.sink, extras: scfg.extras,
		traceW: scfg.traceW, metrics: sc.Metrics || scfg.metrics,
	}
	if rs.traceW == nil {
		rs.tracePath = sc.TraceOut
	}
	// seedSensitive marks a fleet with a class whose sessions depend on
	// the derived seed (random replacement policy).
	seedSensitive := false
	classIdx := map[SessionSpec]int{}
	for ni, ns := range sc.Nodes {
		if ns.Count < 0 {
			return nil, fmt.Errorf("protean: node spec %d has negative count %d", ni, ns.Count)
		}
		if ns.StoreSlots < 0 {
			return nil, fmt.Errorf("protean: node spec %d has negative store slots %d", ni, ns.StoreSlots)
		}
		if ns.ClockScale < 0 {
			return nil, fmt.Errorf("protean: node spec %d has negative clock scale %d", ni, ns.ClockScale)
		}
		class, ok := classIdx[ns.Session]
		if !ok {
			opts, err := ns.Session.options()
			if err != nil {
				return nil, fmt.Errorf("protean: node spec %d: %w", ni, err)
			}
			class = len(rs.classOpts)
			classIdx[ns.Session] = class
			rs.classOpts = append(rs.classOpts, opts)
			if ns.Session.Policy != "" {
				// Already validated by options() above.
				pol, _ := ParsePolicy(ns.Session.Policy)
				seedSensitive = seedSensitive || pol == PolicyRandom
			}
		}
		count := ns.Count
		if count == 0 {
			count = 1
		}
		if len(rs.nodeCfgs)+count > MaxScenarioNodes {
			return nil, fmt.Errorf("protean: scenario expands to more than %d nodes", MaxScenarioNodes)
		}
		fetch := int(Scale{Factor: ns.Session.Scale}.ConfigBytesPerCycle())
		for i := 0; i < count; i++ {
			rs.nodeCfgs = append(rs.nodeCfgs, cluster.NodeConfig{
				StoreSlots:         ns.StoreSlots,
				ClockScale:         ns.ClockScale,
				FetchBytesPerCycle: fetch,
				Class:              class,
			})
		}
	}
	rs.classes = len(rs.classOpts)

	arrivals, err := sc.Arrivals.resolve()
	if err != nil {
		return nil, err
	}
	admission, err := sc.Admission.resolve()
	if err != nil {
		return nil, err
	}
	rs.policies = scfg.policies
	if len(rs.policies) == 0 {
		pol, err := sc.Placement.resolve()
		if err != nil {
			return nil, err
		}
		rs.policies = []PlacementPolicy{pol}
	}

	// Jobs resolve their identity — items, built template, circuit keys —
	// against the reference (first) node spec, so a job is one job no
	// matter which node class it lands on.
	refSpec := sc.Nodes[0].Session
	refScale := Scale{Factor: refSpec.Scale}
	for ji, js := range sc.Jobs {
		if js.Count < 0 {
			return nil, fmt.Errorf("protean: job spec %d has negative count %d", ji, js.Count)
		}
		fj, err := resolveJob(js, refScale, refSpec.SoftDispatch)
		if err != nil {
			return nil, fmt.Errorf("protean: job spec %d: %w", ji, err)
		}
		count := js.Count
		if count == 0 {
			count = 1
		}
		if len(rs.jobs)+count > MaxScenarioJobs {
			return nil, fmt.Errorf("protean: scenario expands to more than %d jobs", MaxScenarioJobs)
		}
		for i := 0; i < count; i++ {
			fj.rep = len(rs.jobs)
			rs.jobs = append(rs.jobs, fj)
		}
	}
	if len(rs.jobs) == 0 {
		return nil, fmt.Errorf("protean: scenario has no jobs")
	}
	// Jobs with the same resolved identity are the same simulation as long
	// as nothing per-job can reach a session: no class is seed-sensitive,
	// and no session extras observe the sessions (a shared trace or
	// disassembly would see one session where per-job execution shows
	// many). Then each group's first job stands for the group, and its
	// index plus one is the group's nonzero cluster.Job.Identity, so
	// Execute runs it once per class. Otherwise every Identity stays 0
	// and every job executes alone.
	if !seedSensitive && len(rs.extras) == 0 {
		type jobIdentity struct {
			workload         string
			instances, items int
		}
		first := map[jobIdentity]int{}
		for i := range rs.jobs {
			j := &rs.jobs[i]
			id := jobIdentity{j.workload, j.instances, j.items}
			rep, ok := first[id]
			if !ok {
				rep = i
				first[id] = i
			}
			j.rep = rep
			j.job.Identity = rep + 1
		}
	}
	if arrivals.Kind == cluster.ArriveTrace && len(arrivals.Times) < len(rs.jobs) {
		return nil, fmt.Errorf("protean: arrival trace has %d times for %d jobs", len(arrivals.Times), len(rs.jobs))
	}

	rs.ccfg = cluster.Config{
		NodeConfigs: rs.nodeCfgs,
		Classes:     rs.classes,
		Seed:        sc.Seed,
		Workers:     sc.Workers,
		Arrivals:    arrivals,
		Admission:   admission,
	}
	return rs, nil
}

// resolveJob expands one JobSpec into its executable form against the
// reference scale and soft-dispatch mode.
func resolveJob(js JobSpec, refScale Scale, soft bool) (fleetJob, error) {
	w, ok := lookupWorkload(js.Workload)
	if !ok {
		return fleetJob{}, fmt.Errorf("unknown workload %q (registered: %v)", js.Workload, Workloads())
	}
	if js.Instances < 0 {
		return fleetJob{}, fmt.Errorf("negative instance count %d", js.Instances)
	}
	instances := js.Instances
	if instances == 0 {
		instances = 1
	}
	if js.Items < 0 {
		return fleetJob{}, fmt.Errorf("negative items %d", js.Items)
	}
	items := js.Items
	if items > MaxScenarioItems {
		return fleetJob{}, fmt.Errorf("items %d exceeds the %d cap", items, MaxScenarioItems)
	}
	if items == 0 {
		items = refScale.Items(js.Workload)
		if items <= 0 {
			return fleetJob{}, fmt.Errorf("workload %q declares no default work-unit count; set items", js.Workload)
		}
	}
	prog, err := buildTemplate(w, items, soft)
	if err != nil {
		return fleetJob{}, fmt.Errorf("build %q: %w", js.Workload, err)
	}
	job := cluster.Job{Label: fmt.Sprintf("%s x%d", prog.Name, instances)}
	for _, img := range prog.Images {
		job.Circuits = append(job.Circuits, cluster.Circuit{
			Key:   cluster.Key(img.Key()),
			Bytes: img.StaticBytes,
		})
	}
	return fleetJob{workload: js.Workload, instances: instances, items: items, job: job}, nil
}

// Runner is a started scenario run: Start hands one back immediately,
// the jobs execute in the background on the worker pool, and Wait
// delivers the FleetResult.
type Runner struct {
	done chan struct{}
	frs  []*FleetResult
	err  error
}

// Start executes a Scenario: it validates and resolves the spec, begins
// executing the jobs on the worker pool, and returns a Runner whose Wait
// delivers the FleetResult. Resolution errors (the Validate class of
// problems) surface here, before any simulation runs.
//
// This is the system's one entry point: NewCluster + Submit + Run is
// option-flavoured sugar over exactly this path, and a Session is the
// degenerate fleet of one node.
func Start(ctx context.Context, sc Scenario, opts ...StartOption) (*Runner, error) {
	var scfg startConfig
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&scfg); err != nil {
			return nil, err
		}
	}
	rs, err := sc.resolve(scfg)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Runner{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.frs, r.err = rs.run(ctx)
	}()
	return r, nil
}

// RunScenario is Start + Wait: execute the scenario and block for its
// FleetResult.
func RunScenario(ctx context.Context, sc Scenario, opts ...StartOption) (*FleetResult, error) {
	r, err := Start(ctx, sc, opts...)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}

// Wait blocks until the run finishes and returns its FleetResult — the
// first one, when WithRunPlacements replayed several policies.
func (r *Runner) Wait() (*FleetResult, error) {
	frs, err := r.WaitAll()
	if err != nil {
		return nil, err
	}
	return frs[0], nil
}

// WaitAll blocks until the run finishes and returns one FleetResult per
// replayed placement policy, in WithRunPlacements order (a single
// result without it).
func (r *Runner) WaitAll() ([]*FleetResult, error) {
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return r.frs, nil
}

// run executes the resolved scenario: phase 1 executes every job once
// per node class on the worker pool, phase 2 replays admission and
// placement per policy. Job sessions are constructed through the very
// same New + Spawn + Run path an imperative caller uses.
func (rs *resolvedScenario) run(ctx context.Context) ([]*FleetResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([][]*Result, rs.classes)
	for class := range results {
		results[class] = make([]*Result, len(rs.jobs))
	}
	runner := func(i, class int, seed int64) (cluster.Exec, error) {
		j := rs.jobs[i]
		opts := make([]Option, 0, len(rs.classOpts[class])+len(rs.extras)+1)
		opts = append(opts, rs.classOpts[class]...)
		opts = append(opts, rs.extras...)
		opts = append(opts, WithSeed(seed))
		s, err := New(opts...)
		if err != nil {
			return cluster.Exec{}, err
		}
		if _, err := s.Spawn(j.workload, j.instances, j.items); err != nil {
			return cluster.Exec{}, err
		}
		res, err := s.Run(ctx)
		if err != nil {
			return cluster.Exec{}, err
		}
		results[class][i] = res
		return cluster.Exec{Cycles: res.Cycles}, nil
	}

	ccfg := rs.ccfg
	if rs.sink != nil {
		sink := rs.sink
		ccfg.OnExec = func(i, class int, e cluster.Exec) {
			// The runner stored the representative's result before
			// OnExec fires (same goroutine), so the event carries the
			// verification verdict.
			res := results[class][rs.jobs[i].rep]
			ok := res != nil && res.Err() == nil
			tag := ""
			if rs.classes > 1 {
				tag = fmt.Sprintf(" [class %d]", class)
			}
			sink.Event(Event{
				Kind:  EventJobDone,
				Label: rs.jobs[i].job.Label,
				Cycle: e.Cycles,
				OK:    ok,
				Message: fmt.Sprintf("job %-24s%s executed in %12d cycles (verified=%v)",
					rs.jobs[i].job.Label, tag, e.Cycles, ok),
			})
		}
	}
	jobs := make([]cluster.Job, len(rs.jobs))
	for i := range rs.jobs {
		jobs[i] = rs.jobs[i].job
	}
	execs, err := cluster.Execute(ccfg, jobs, runner)
	if err != nil {
		return nil, err
	}
	// Every member of an identity group shares its representative's
	// Result.
	for class := range results {
		for i, j := range rs.jobs {
			results[class][i] = results[class][j.rep]
		}
	}
	frs := make([]*FleetResult, len(rs.policies))
	for pi, pol := range rs.policies {
		ccfg.Policy = pol
		tr, err := cluster.Replay(ccfg, jobs, execs)
		if err != nil {
			return nil, err
		}
		fr := rs.assemble(tr, results)
		if rs.metrics {
			fr.Metrics = fleetMetrics(tr, fr)
		}
		if pi == 0 {
			if err := rs.emitChromeTrace(tr, jobs); err != nil {
				return nil, err
			}
		}
		if rs.sink != nil {
			rs.sink.Event(Event{
				Kind:  EventFleetDone,
				Procs: len(rs.jobs),
				Cycle: fr.Makespan,
				OK:    fr.Err() == nil,
				Message: fmt.Sprintf("fleet done: %d jobs on %d nodes (%s), makespan %d, config loads %d (%d cold, %d warm), shed %d, deferred %d",
					len(rs.jobs), len(rs.nodeCfgs), fr.Policy, fr.Makespan, fr.ConfigLoads(), fr.ColdLoads, fr.WarmHits, fr.Shed, fr.Deferred),
			})
		}
		frs[pi] = fr
	}
	return frs, nil
}

// emitChromeTrace writes the fleet timeline to the configured trace
// destination (WithRunTrace writer or Scenario.TraceOut path); a no-op
// when neither is set. Runs on the serial replay goroutine.
func (rs *resolvedScenario) emitChromeTrace(tr *cluster.Trace, jobs []cluster.Job) error {
	if rs.traceW == nil && rs.tracePath == "" {
		return nil
	}
	t := obs.NewTracer()
	tr.EmitChrome(t, jobs)
	if rs.traceW != nil {
		if err := t.WriteChromeTrace(rs.traceW); err != nil {
			return fmt.Errorf("protean: write trace: %w", err)
		}
		return nil
	}
	f, err := os.Create(rs.tracePath)
	if err != nil {
		return fmt.Errorf("protean: trace out: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("protean: write trace %s: %w", rs.tracePath, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("protean: trace out: %w", err)
	}
	return nil
}

// assemble aggregates the dispatcher trace and the per-class session
// results into a FleetResult. Shed jobs carry no session result and are
// excluded from the aggregate statistics and latency distribution.
func (rs *resolvedScenario) assemble(tr *cluster.Trace, results [][]*Result) *FleetResult {
	fr := &FleetResult{
		Policy:      tr.Policy,
		Makespan:    tr.Makespan,
		Busy:        tr.Busy,
		ColdLoads:   tr.ColdLoads,
		WarmHits:    tr.WarmHits,
		FetchCycles: tr.FetchCycles,
		Shed:        tr.Shed,
		Deferred:    tr.Deferred,
		DeferCycles: tr.DeferCycles,
	}
	for n, nt := range tr.Nodes {
		fr.Nodes = append(fr.Nodes, NodeResult{
			Node:        n,
			Class:       nt.Class,
			ClockScale:  nt.ClockScale,
			Jobs:        nt.Jobs,
			Busy:        nt.Busy,
			ColdLoads:   nt.ColdLoads,
			WarmHits:    nt.WarmHits,
			FetchCycles: nt.FetchCycles,
			Completion:  nt.Completion,
		})
	}
	var lats []uint64
	for i, jt := range tr.Jobs {
		jr := JobResult{
			ID:          jt.ID,
			Label:       jt.Label,
			Workload:    rs.jobs[i].workload,
			Node:        jt.Node,
			Arrival:     jt.Arrival,
			Start:       jt.Start,
			Completion:  jt.Completion,
			ColdLoads:   jt.ColdLoads,
			WarmHits:    jt.WarmHits,
			FetchCycles: jt.FetchCycles,
			Shed:        jt.Shed,
			Deferred:    jt.Deferred,
			DeferCycles: jt.DeferCycles,
		}
		if !jt.Shed {
			jr.Latency = jt.Completion - jt.Arrival
			lats = append(lats, jr.Latency)
			res := results[rs.nodeCfgs[jt.Node].Class][i]
			jr.Run = res
			if res != nil {
				addCIS(&fr.CIS, res.CIS)
				addKernel(&fr.Kernel, res.Kernel)
				addRFU(&fr.RFU, res.RFU)
			}
		}
		fr.Jobs = append(fr.Jobs, jr)
	}
	fr.Latency = latencyStats(lats)
	return fr
}

// latencyStats summarizes a latency sample: integer mean and
// nearest-rank percentiles over the sorted sample, so the statistics are
// exactly reproducible.
func latencyStats(lats []uint64) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	sorted := slices.Clone(lats)
	slices.Sort(sorted)
	var sum uint64
	for _, v := range sorted {
		sum += v
	}
	rank := func(pct int) uint64 {
		idx := (pct*len(sorted) + 99) / 100
		if idx < 1 {
			idx = 1
		}
		return sorted[idx-1]
	}
	return LatencyStats{
		Jobs: len(sorted),
		Mean: sum / uint64(len(sorted)),
		P50:  rank(50),
		P95:  rank(95),
		P99:  rank(99),
		Max:  sorted[len(sorted)-1],
	}
}
