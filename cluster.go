package protean

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"protean/internal/cluster"
	"protean/internal/core"
)

var errClusterRan = errors.New("protean: cluster already run — build a new Cluster per run")

// ConfigKey is the content identity of one circuit configuration — the
// SharedProgram bitstream hash for gate-level images (see core.ConfigKey).
// The cluster dispatcher uses it as the placement-affinity key.
type ConfigKey = core.ConfigKey

// PlacementPolicy decides which simulated node runs each submitted
// cluster job. Implementations must be deterministic given the fleet view
// (see internal/cluster); the built-ins below cover the paper-adjacent
// spectrum from locality-oblivious to configuration-aware.
type PlacementPolicy = cluster.PlacementPolicy

// Built-in placement policies. PlaceAffinity prefers the node whose
// bitstream store already holds the job's configurations, keyed by
// ConfigKey — the paper's configuration-locality cost turned into a
// placement signal.
var (
	PlaceRoundRobin  = cluster.RoundRobin()
	PlaceRandom      = cluster.Random()
	PlaceLeastLoaded = cluster.LeastLoaded()
	PlaceAffinity    = cluster.Affinity()
)

// PlaceWeightedAffinity is the locality-vs-balance hybrid: each node is
// scored weight·affinityHits − backlogCycles and the maximum wins, so
// warm configurations attract work until the queue-length difference
// outweighs them. weight is cycles per warm configuration; 0 means
// DefaultAffinityWeight. In a PlacementSpec this is policy
// "weighted-affinity" with the weight in PlacementSpec.Weight.
func PlaceWeightedAffinity(weight uint64) PlacementPolicy {
	return cluster.WeightedAffinity(weight)
}

// Placements lists the built-in placement policies in sweep order.
func Placements() []PlacementPolicy { return cluster.Policies() }

// ParsePlacement resolves a placement policy by name, accepting the short
// command-line spellings "rr", "ll", "affinity" and "wa".
func ParsePlacement(s string) (PlacementPolicy, error) { return cluster.ParsePlacement(s) }

// ClusterOption configures a Cluster at construction time.
//
// Cluster options are sugar over the declarative Scenario spec: every
// option populates a Scenario field (Cluster.Scenario snapshots the
// result), and Cluster.Run executes through protean.Start exactly like a
// spec loaded from JSON. New code that wants portable run descriptions —
// heterogeneous fleets, admission bounds, Poisson or trace arrivals —
// should declare a Scenario; the option constructors remain fully
// supported for the homogeneous cases they can express.
type ClusterOption func(*clusterConfig) error

type clusterConfig struct {
	nodes     int
	slots     int
	placement PlacementPolicy
	seed      int64
	workers   int
	meanGap   uint64
	session   []Option
	sink      Sink
}

// WithNodes sets the fleet size (default 4 nodes).
func WithNodes(n int) ClusterOption {
	return func(c *clusterConfig) error {
		if n <= 0 {
			return fmt.Errorf("protean: cluster needs at least one node, got %d", n)
		}
		c.nodes = n
		return nil
	}
}

// WithPlacement selects the placement policy (default PlaceRoundRobin).
func WithPlacement(p PlacementPolicy) ClusterOption {
	return func(c *clusterConfig) error {
		if p == nil {
			return fmt.Errorf("protean: nil placement policy")
		}
		c.placement = p
		return nil
	}
}

// WithStoreSlots caps each node's bitstream store at n distinct
// configurations, evicted LRU (default cluster.DefaultStoreSlots). Smaller
// stores make placement locality matter more.
func WithStoreSlots(n int) ClusterOption {
	return func(c *clusterConfig) error {
		if n <= 0 {
			return fmt.Errorf("protean: store slots must be positive, got %d", n)
		}
		c.slots = n
		return nil
	}
}

// WithClusterSeed sets the fleet seed: per-job session seeds, arrival
// jitter and placement randomness all derive from it (splitmix,
// internal/rng), so a fleet run is a pure function of its configuration.
func WithClusterSeed(seed int64) ClusterOption {
	return func(c *clusterConfig) error {
		c.seed = seed
		return nil
	}
}

// WithClusterWorkers sizes the job-execution pool; 0 (the default) means
// GOMAXPROCS, 1 runs jobs serially. FleetResult is byte-identical for
// every setting.
func WithClusterWorkers(n int) ClusterOption {
	return func(c *clusterConfig) error {
		c.workers = n
		return nil
	}
}

// WithOpenLoop switches from the default closed-loop batch mode (all jobs
// present at cycle 0) to open-loop arrivals with deterministic uniform
// jitter averaging meanGapCycles — the ArrivalSpec "uniform" process.
// Passing 0 keeps batch mode (so a command-line -gap flag can be
// forwarded unconditionally); gaps above 2^48 cycles (~33 simulated days
// at 100 MHz) are rejected so arrival arithmetic can never overflow the
// fleet clock. For memoryless queueing, declare a Scenario with the
// "poisson" process instead — the uniform jitter is kept for
// reproducibility with option-built fleets.
func WithOpenLoop(meanGapCycles uint64) ClusterOption {
	return func(c *clusterConfig) error {
		if meanGapCycles > cluster.MaxMeanGap {
			return fmt.Errorf("protean: open-loop mean gap %d exceeds the %d-cycle cap", meanGapCycles, uint64(cluster.MaxMeanGap))
		}
		c.meanGap = meanGapCycles
		return nil
	}
}

// WithNodeOptions sets the session options every node applies to its job
// runs — quantum, policy, scale, soft dispatch and so on. A WithSeed among
// them is overridden by the per-job derived seed.
func WithNodeOptions(opts ...Option) ClusterOption {
	return func(c *clusterConfig) error {
		c.session = append(c.session, opts...)
		return nil
	}
}

// WithFleetProgress streams structured fleet events (one EventJobDone per
// executed job, then one EventFleetDone per replayed policy — exactly one
// for a plain Run) to sink. Job events arrive from the worker goroutines
// in completion order; the sink must be safe for concurrent use.
func WithFleetProgress(sink Sink) ClusterOption {
	return func(c *clusterConfig) error {
		c.sink = sink
		return nil
	}
}

// Cluster is a simulated fleet of workstations — each node the machine +
// POrSCHE kernel of a Session — fed from a job queue by a placement
// dispatcher. Build one with NewCluster, fill the queue with Submit, then
// Run it once:
//
//	c, _ := protean.NewCluster(protean.WithNodes(8),
//	    protean.WithPlacement(protean.PlaceAffinity))
//	for i := 0; i < 24; i++ {
//	    c.Submit([]string{"alpha", "twofish", "echo"}[i%3], 2, 0)
//	}
//	fr, err := c.Run(ctx)
//
// A Cluster is option-flavoured sugar over the Scenario spec: the
// configuration it accumulates is exactly a Scenario (snapshot it with
// Cluster.Scenario, serialize it with MarshalJSON), and Run executes
// through protean.Start. Like Session, a Cluster is single-use and not
// safe for concurrent use; its Run executes jobs concurrently internally.
type Cluster struct {
	cfg  clusterConfig
	scfg config // resolved per-job session configuration (scale, soft, …)
	jobs []JobSpec
	ran  bool
}

// NewCluster builds an idle fleet from functional options. The zero
// configuration is 4 nodes, round-robin placement, batch arrivals, seed 1,
// default-scale sessions. Declaring a Scenario and calling Start is the
// spec-first equivalent.
func NewCluster(opts ...ClusterOption) (*Cluster, error) {
	cfg := clusterConfig{nodes: 4, placement: PlaceRoundRobin, seed: 1}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	// Resolve the node session configuration once, so Submit can apply
	// scale defaults and bad session options fail here, not per job.
	var sc config
	for _, opt := range cfg.session {
		if opt == nil {
			continue
		}
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	return &Cluster{cfg: cfg, scfg: sc}, nil
}

// Submit queues instances of a registered workload as one job: all
// instances run together in a single session on whichever node the
// dispatcher picks. items <= 0 means the workload's scaled default.
// Heterogeneous fleets are just repeated Submit calls; the job's
// configuration keys (for affinity placement) come from its workload
// template's images. Submitting to a cluster whose Run has started is an
// error — the job list is part of the scenario the run resolved.
func (c *Cluster) Submit(workload string, instances, items int) error {
	if c.ran {
		return errClusterRan
	}
	if instances <= 0 {
		return fmt.Errorf("protean: need at least one instance of %q", workload)
	}
	if items < 0 {
		items = 0
	}
	// Resolve and build eagerly so unknown workloads, missing defaults
	// and template build errors surface at Submit time, and the snapshot
	// Scenario carries explicit items.
	fj, err := resolveJob(JobSpec{Workload: workload, Instances: instances, Items: items},
		c.scfg.scale, c.scfg.soft)
	if err != nil {
		return fmt.Errorf("protean: %w", err)
	}
	c.jobs = append(c.jobs, JobSpec{Workload: workload, Instances: fj.instances, Items: fj.items})
	return nil
}

// Scenario snapshots the cluster's configuration and job queue as the
// equivalent declarative spec: running the snapshot through Start (or
// serializing it with MarshalJSON and reloading via LoadScenario) yields
// a byte-identical FleetResult. That round trip holds for the built-in
// placement policies; a custom policy snapshots by its Name() only,
// which MarshalJSON/Validate reject as unknown — run such a snapshot by
// passing the policy value itself via WithRunPlacements (what
// Cluster.Run does internally).
func (c *Cluster) Scenario() Scenario {
	sc := Scenario{
		Seed:    c.cfg.seed,
		Workers: c.cfg.workers,
		Nodes: []NodeSpec{{
			Count:      c.cfg.nodes,
			StoreSlots: c.cfg.slots,
			Session:    c.scfg.spec(),
		}},
		Placement: placementSpecOf(c.cfg.placement),
		Jobs:      slices.Clone(c.jobs),
	}
	if c.cfg.meanGap > 0 {
		sc.Arrivals = ArrivalSpec{Process: ArrivalUniform, MeanGap: c.cfg.meanGap}
	}
	return sc
}

// Run simulates the fleet until every submitted job has completed or ctx
// is cancelled. Jobs execute concurrently (WithClusterWorkers) with
// per-job seeds derived from the cluster seed, then placement replays
// deterministically, so the FleetResult is byte-identical for every
// worker count. The first job failure — including cancellation — aborts
// the run.
func (c *Cluster) Run(ctx context.Context) (*FleetResult, error) {
	frs, err := c.RunPlacements(ctx, c.cfg.placement)
	if err != nil {
		return nil, err
	}
	return frs[0], nil
}

// RunPlacements runs the fleet once and replays placement under each of
// the given policies, returning one FleetResult per policy in order.
// Because job executions are node-independent, the expensive session
// simulations happen exactly once and only the cheap dispatcher replay
// differs per policy — the natural shape for paired policy comparisons
// (the F1 placement sweep, the affinity benchmark). The per-job session
// Results are shared between the returned FleetResults; they are
// immutable after the run.
func (c *Cluster) RunPlacements(ctx context.Context, policies ...PlacementPolicy) ([]*FleetResult, error) {
	if c.ran {
		return nil, errClusterRan
	}
	if len(c.jobs) == 0 {
		return nil, fmt.Errorf("protean: nothing to run — submit a job first")
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("protean: no placement policies given")
	}
	opts := []StartOption{WithRunPlacements(policies...)}
	if c.cfg.sink != nil {
		opts = append(opts, WithRunProgress(c.cfg.sink))
	}
	if extras := c.scfg.extraOptions(); len(extras) > 0 {
		opts = append(opts, WithRunSessionOptions(extras...))
	}
	// Mark the cluster consumed before Start launches any goroutine, so
	// a Submit racing the run (e.g. from a progress sink) observes it —
	// the write happens-before the workers exist.
	c.ran = true
	r, err := Start(ctx, c.Scenario(), opts...)
	if err != nil {
		// Resolution failures are validation errors: they do not consume
		// the cluster, matching NewCluster-time option errors; Start
		// spawns nothing when resolution fails.
		c.ran = false
		return nil, err
	}
	return r.WaitAll()
}

// addCIS, addKernel and addRFU fold one job's session statistics into the
// fleet aggregate. Max-style fields (IRQ latency) take the fleet maximum;
// everything else sums.
func addCIS(dst *CISStats, s CISStats) {
	dst.Faults += s.Faults
	dst.MappingFaults += s.MappingFaults
	dst.Loads += s.Loads
	dst.Restores += s.Restores
	dst.Evictions += s.Evictions
	dst.SoftMaps += s.SoftMaps
	dst.ShareHits += s.ShareHits
	dst.ConfigBytes += s.ConfigBytes
	dst.ConfigCycles += s.ConfigCycles
	dst.PageIns += s.PageIns
}

func addKernel(dst *KernelStats, s KernelStats) {
	dst.ContextSwitches += s.ContextSwitches
	dst.TimerIRQs += s.TimerIRQs
	dst.Syscalls += s.Syscalls
	dst.Kills += s.Kills
	dst.KernelCycles += s.KernelCycles
	if s.MaxIRQLatency > dst.MaxIRQLatency {
		dst.MaxIRQLatency = s.MaxIRQLatency
	}
	dst.SumIRQLatency += s.SumIRQLatency
}

func addRFU(dst *RFUStats, s RFUStats) {
	dst.HWDispatches += s.HWDispatches
	dst.SWDispatches += s.SWDispatches
	dst.Faults += s.Faults
	dst.Completions += s.Completions
	dst.Aborts += s.Aborts
	dst.ExecCycles += s.ExecCycles
	dst.ConfigLoads += s.ConfigLoads
	dst.StateSaves += s.StateSaves
	dst.StateRestores += s.StateRestores
}
