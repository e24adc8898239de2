package cluster

import (
	"fmt"
	"math/bits"
	"strings"
)

// PlacementPolicy decides which node runs each arriving job. Place must
// be a pure function of the fleet view (stochastic choice draws from
// f.Rand(), which is seeded deterministically), so a fleet run is
// reproducible from its configuration alone. Implementations are
// stateless — everything a decision needs (placement count, backlogs,
// store contents, the random stream) lives on the Fleet — so one policy
// value may be shared by any number of concurrent fleet runs.
type PlacementPolicy interface {
	Name() string
	Place(f *Fleet, job *Job) int
}

// RoundRobin cycles the fleet in placement order — the fleet-level
// analogue of the paper's round-robin replacement policy, and just as
// oblivious to what the nodes already hold.
func RoundRobin() PlacementPolicy { return roundRobin{} }

type roundRobin struct{}

func (roundRobin) Name() string               { return "round-robin" }
func (roundRobin) Place(f *Fleet, _ *Job) int { return f.Placed() % f.NumNodes() }

// Random places uniformly at random from the fleet's deterministic
// placement stream.
func Random() PlacementPolicy { return random{} }

type random struct{}

func (random) Name() string               { return "random" }
func (random) Place(f *Fleet, _ *Job) int { return int(f.Rand().Below(uint64(f.NumNodes()))) }

// LeastLoaded places on the node with the smallest backlog at arrival,
// breaking ties toward the lowest index.
func LeastLoaded() PlacementPolicy { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Place(f *Fleet, _ *Job) int {
	ix := f.index()
	return ix.all.best(ix.allRoot, f.now)
}

// Affinity prefers the node whose bitstream store already holds the most
// of the job's configurations — the paper's configuration-locality cost
// turned into a placement signal, keyed on the SharedProgram bitstream
// hash. Ties break toward the smaller backlog, then the lowest index;
// when no node holds anything the policy degenerates to least-loaded, so
// a cold fleet still spreads.
func Affinity() PlacementPolicy { return affinity{} }

type affinity struct{}

func (affinity) Name() string { return "config-affinity" }

// Place asks the index once per store-content group: every member of a
// group scores the same hits, so the group's candidate is its
// least-backlog member.
func (affinity) Place(f *Fleet, job *Job) int {
	ix := f.index()
	best, bestHits := -1, 0
	if ix.markJob(job) > 0 {
		for _, g := range ix.live {
			root := ix.groups[g].root
			hits := ix.hits(int(root))
			if hits == 0 || hits < bestHits {
				continue
			}
			n := ix.byGroup.best(root, f.now)
			if hits > bestHits || f.Backlog(n) < f.Backlog(best) ||
				f.Backlog(n) == f.Backlog(best) && n < best {
				best, bestHits = n, hits
			}
		}
	}
	if best < 0 {
		return leastLoaded{}.Place(f, job)
	}
	return best
}

// DefaultAffinityWeight is the WeightedAffinity weight used when a spec
// leaves it 0: the order of one short job's service time at the scales
// the tests and examples run at, so locality wins on a slack fleet and
// backlog wins under load. Tune it per scenario through
// PlacementSpec.Weight — the right value tracks what one avoided cold
// fetch is worth against a cycle of queueing.
const DefaultAffinityWeight = 100_000

// WeightedAffinity is the locality-vs-balance hybrid: it scores every
// node as weight·affinityHits − backlog and places on the maximum
// (ties toward the lowest index). Pure affinity can idle a node forever
// on a k-kind mix over n > k nodes — only k nodes ever warm up — while
// round-robin ignores locality entirely; the weighted score spreads work
// exactly when the backlog difference exceeds what the warm circuits are
// worth. weight is in cycles per affinity hit; 0 means
// DefaultAffinityWeight.
func WeightedAffinity(weight uint64) PlacementPolicy {
	if weight == 0 {
		weight = DefaultAffinityWeight
	}
	return weightedAffinity{weight: weight}
}

type weightedAffinity struct{ weight uint64 }

func (weightedAffinity) Name() string { return "weighted-affinity" }

// Weight exposes the tunable for scenario snapshots (Cluster.Scenario).
func (w weightedAffinity) Weight() uint64 { return w.weight }

// Place scores one candidate per store-content group that holds any of
// the job's keys, plus the fleet-wide least-backlog node, which stands in
// for every node the job has no hits on. Within a set of equal hits the
// best score is the least clamped backlog, lowest index first.
func (w weightedAffinity) Place(f *Fleet, job *Job) int {
	ix := f.index()
	ix.markJob(job)
	best := w.top(f, &ix.all, ix.allRoot)
	bestScore := w.score(ix.hits(best), f.Backlog(best))
	for _, g := range ix.live {
		root := ix.groups[g].root
		hits := ix.hits(int(root))
		if hits == 0 {
			continue
		}
		n := w.top(f, &ix.byGroup, root)
		if s := w.score(hits, f.Backlog(n)); s > bestScore || s == bestScore && n < best {
			best, bestScore = n, s
		}
	}
	return best
}

// top returns the node of tree t with the least backlog as score clamps
// it: once even the least backlog clamps, every member ties and the
// lowest index wins.
func (weightedAffinity) top(f *Fleet, fo *forest, t int32) int {
	n := fo.best(t, f.now)
	if f.Backlog(n) >= uint64(maxInt64) {
		n = fo.first(t)
	}
	return n
}

// score is weight·hits − backlog as a saturating signed value: the
// hits·weight product goes through a 64×64→128-bit multiply so a
// pathological spec-supplied weight saturates instead of wrapping (a
// wrap would rank a better-locality node below a worse one), and
// backlogs are clamped symmetrically.
func (w weightedAffinity) score(hits int, backlog uint64) int64 {
	hi, gain := bits.Mul64(uint64(hits), w.weight)
	score := maxInt64
	if hi == 0 && gain < uint64(maxInt64) {
		score = int64(gain)
	}
	if backlog > uint64(maxInt64) {
		backlog = uint64(maxInt64)
	}
	return score - int64(backlog)
}

// Policies lists the built-in placement policies, in sweep order.
func Policies() []PlacementPolicy {
	return []PlacementPolicy{RoundRobin(), Random(), LeastLoaded(), Affinity()}
}

// ParsePlacement resolves a policy by name; it accepts each policy's
// Name() plus the short command-line spellings "rr", "ll", "affinity"
// and "wa" (weighted-affinity at DefaultAffinityWeight).
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch strings.ToLower(s) {
	case "rr", "round-robin", "roundrobin":
		return RoundRobin(), nil
	case "random":
		return Random(), nil
	case "ll", "least-loaded", "leastloaded":
		return LeastLoaded(), nil
	case "affinity", "config-affinity":
		return Affinity(), nil
	case "wa", "weighted-affinity", "weightedaffinity":
		return WeightedAffinity(0), nil
	}
	return nil, fmt.Errorf("cluster: unknown placement policy %q (want rr, random, least-loaded, affinity or weighted-affinity)", s)
}
