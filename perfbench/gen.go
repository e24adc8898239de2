package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"protean"
)

// Every input of every workload is a pure function of the seed. The
// generators vary what the system's behaviour depends on (workload mix,
// instance count, quantum, replacement policy, work-unit count, arrival
// times) while holding each workload's total work close to constant, so
// that runs with different seeds measure comparable amounts of work.

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// jitter scales base by a factor drawn from [1-frac, 1+frac].
func jitter(r *rand.Rand, base int, frac float64) int {
	return max(1, int(float64(base)*(1-frac+2*frac*r.Float64())))
}

// sessionScale shrinks the paper-size sessions while keeping the
// contention knees of Figures 2 and 3.
const sessionScale = 800

// cell is one single-machine session of the sessions workload.
type cell struct {
	Kind      string // fig2, thrash, baseline, soft or gate
	Workload  string
	Instances int
	Items     int
	Quantum   uint32
	Policy    protean.Policy
	Soft      bool
	Seed      int64
	// cost is an estimate of host time, used only to order cells
	// largest first so that a pass does not end on one long cell.
	cost float64
}

func (c cell) options() []protean.Option {
	return []protean.Option{
		protean.WithScale(sessionScale),
		protean.WithQuantum(c.Quantum),
		protean.WithPolicy(c.Policy),
		protean.WithSoftDispatch(c.Soft),
		protean.WithSeed(c.Seed),
	}
}

// hostMsPerInstance estimates host milliseconds per instance at scale
// 400 for each kind and application.
var hostMsPerInstance = map[string]float64{
	"fig2/alpha": 10, "fig2/echo": 15, "fig2/twofish": 7,
	"thrash/alpha": 10, "thrash/echo": 33, "thrash/twofish": 10,
	"baseline/alpha": 37, "baseline/echo": 29, "baseline/twofish": 120,
	"soft/alpha": 7, "soft/echo": 11,
	"gate/alpha": 150,
}

// halves returns n of the options in seed order. With two options each
// goes to half of the n (the odd one out drawn), so that the seed moves
// which cells get which option but not how many do.
func halves[T any](r *rand.Rand, n int, opts ...T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = opts[min(i*len(opts)/n, len(opts)-1)]
	}
	if len(opts) == 2 && n%2 == 1 {
		out[n/2] = opts[r.IntN(2)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sessionCells generates one pass of the sessions workload: the grid of
// Figures 2 and 3 in five strata of instance sweeps. The strata and
// their instance counts are fixed; the seed draws which cells of a sweep
// get which quantum and policy, the items and the session seeds.
func sessionCells(seed int64) []cell {
	r := newRand(seed, 1)
	scale := protean.Scale{Factor: sessionScale}
	q10, q1 := scale.Quantum(protean.Quantum10ms), scale.Quantum(protean.Quantum1ms)
	rr, random := protean.PolicyRoundRobin, protean.PolicyRandom
	var cells []cell
	sweep := func(kind, app, variant string, from, to int, quanta []uint32, pols []protean.Policy, soft bool) {
		name := app + variant
		n := to - from + 1
		qs, ps := halves(r, n, quanta...), halves(r, n, pols...)
		for i := range n {
			items := jitter(r, scale.Items(name), 0.125)
			cells = append(cells, cell{
				Kind: kind, Workload: name, Instances: from + i, Items: items,
				Quantum: qs[i], Policy: ps[i], Soft: soft, Seed: r.Int64(),
				cost: hostMsPerInstance[kind+"/"+app] * float64((from+i)*items) / float64(scale.Items(name)),
			})
		}
	}
	both := []uint32{q10, q1}
	bothPol := []protean.Policy{rr, random}
	for _, app := range []string{"alpha", "echo", "twofish"} {
		// Figure 2, low contention: 1-4 instances of the hardware builds.
		sweep("fig2", app, "/hw-nosoft", 1, 4, both, bothPol, false)
		// Configuration thrash: 1 ms quantum, 5-8 instances; kernel and
		// CIS work dominates.
		sweep("thrash", app, "/hw-nosoft", 5, 8, []uint32{q1}, bothPol, false)
		// Interpreter only: no custom instructions.
		sweep("baseline", app, "/baseline", 1, 8, both, bothPol, false)
	}
	// Software dispatch (Figure 3): round-robin circuit switching with
	// the software alternative enabled.
	for _, app := range []string{"alpha", "echo"} {
		sweep("soft", app, "/hw", 1, 8, both, []protean.Policy{rr}, true)
	}
	// Gate-level fabric: a small share so that it is measured without
	// dominating.
	sweep("gate", "alpha", "/gate", 1, 3, []uint32{q10}, bothPol, false)
	slices.SortStableFunc(cells, func(a, b cell) int { return cmp.Compare(b.cost, a.cost) })
	return cells
}

// fleetSize is the shape of the fleet-wide scenario.
type fleetSize struct{ nodes, jobs int }

// fleetFull is the benchmark's fleet: the node cap and about 16k jobs;
// fleetTiny is for the smoke test.
var (
	fleetFull = fleetSize{protean.MaxScenarioNodes, 1 << 14}
	fleetTiny = fleetSize{64, 256}
)

const fleetScale = 400

// fleetPolicies are the placements the fleet-wide workload replays.
var fleetPolicies = []string{"config-affinity", "weighted-affinity", "least-loaded"}

// fleetScenario generates the fleet-wide scenario: two node specs that
// share one session class but differ in store slots and clock scale,
// Poisson arrivals with a tight defer bound, and jobs drawn from five
// identities in fixed shares, in seed order.
func fleetScenario(seed int64, size fleetSize) protean.Scenario {
	r := newRand(seed, 2)
	session := protean.SessionSpec{Scale: fleetScale}
	scale := protean.Scale{Factor: fleetScale}
	type identity struct {
		workload  string
		instances int
		share     int // per mille
	}
	ids := []identity{
		{"alpha/hw-nosoft", 1, 300},
		{"echo/hw-nosoft", 1, 250},
		{"twofish/hw-nosoft", 1, 200},
		{"alpha/hw-nosoft", 2, 150},
		{"twofish/hw-nosoft", 2, 100},
	}
	var first, seq []protean.JobSpec
	for _, id := range ids {
		js := protean.JobSpec{
			Workload: id.workload, Instances: id.instances,
			Items: jitter(r, scale.Items(id.workload), 0.05),
		}
		first = append(first, js)
		for range size.jobs*id.share/1000 - 1 {
			seq = append(seq, js)
		}
	}
	// One job of each identity leads, in the order above, so that the
	// identities execute in the same order for every seed; the rest
	// arrive shuffled.
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	seq = append(first, seq...)
	// Runs of one identity collapse into one spec entry with a count.
	var jobs []protean.JobSpec
	for _, js := range seq {
		if n := len(jobs); n > 0 && jobs[n-1].Workload == js.Workload &&
			jobs[n-1].Instances == js.Instances && jobs[n-1].Items == js.Items {
			jobs[n-1].Count++
			continue
		}
		js.Count = 1
		jobs = append(jobs, js)
	}
	return protean.Scenario{
		Seed: r.Int64(),
		Nodes: []protean.NodeSpec{
			{Count: size.nodes / 2, StoreSlots: 2, ClockScale: 1, Session: session},
			{Count: size.nodes / 2, StoreSlots: 6, ClockScale: 2, Session: session},
		},
		Arrivals:  protean.ArrivalSpec{Process: protean.ArrivalPoisson, MeanGap: 50},
		Admission: protean.AdmissionSpec{Bound: 2, Policy: protean.AdmissionDefer},
		Jobs:      jobs,
	}
}

// fleetJobCount returns the number of jobs a scenario expands to.
func fleetJobCount(sc protean.Scenario) int {
	n := 0
	for _, js := range sc.Jobs {
		n += max(js.Count, 1)
	}
	return n
}

// daemonScale sizes the daemon's jobs so that one spec takes tens of
// milliseconds.
const (
	daemonScale    = 1600
	daemonJobs     = 6
	daemonResendEv = 4 // every fourth submit resends an earlier spec
)

// submit is one entry of the daemon workload's open-loop schedule.
type submit struct {
	Due  time.Duration // offset from the start of the run
	Spec int           // index into the fresh specs
	// Resend marks a byte-for-byte resend of a spec sent earlier.
	Resend bool
}

// daemonSchedule generates the open-loop submit schedule: n arrival
// times of a Poisson process of the given rate conditioned on n arrivals
// in n/rate seconds (sorted uniform times), with every fourth submit a
// resend of a uniformly chosen earlier fresh spec. It returns the
// schedule and the number of fresh specs.
func daemonSchedule(seed int64, n int, rate float64) ([]submit, int) {
	r := newRand(seed, 3)
	span := float64(n) / rate
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.Float64() * span * float64(time.Second))
	}
	slices.Sort(dues)
	out := make([]submit, n)
	fresh := 0
	for i := range out {
		out[i].Due = dues[i]
		if i%daemonResendEv == daemonResendEv-1 && fresh > 0 {
			out[i].Spec = r.IntN(fresh)
			out[i].Resend = true
			continue
		}
		out[i].Spec = fresh
		fresh++
	}
	return out, fresh
}

// daemonSpecs generates the fresh specs: about 4 nodes and 6 jobs each,
// and no job identity (workload, instances, items) repeats anywhere in
// the run, so execution dedupe has nothing to fold. Specs set none of
// the host-side fields.
func daemonSpecs(seed int64, n int) ([]protean.Scenario, error) {
	r := newRand(seed, 4)
	scale := protean.Scale{Factor: daemonScale}
	apps := []string{"alpha/hw-nosoft", "echo/hw-nosoft", "twofish/hw-nosoft"}
	type key struct {
		workload  string
		instances int
	}
	// Items walk a per-key permutation of [base/2, 3·base/2), so every
	// identity is distinct while the work per job stays near the base.
	next := map[key]int{}
	off := r.IntN(1 << 20)
	session := protean.SessionSpec{Scale: daemonScale}
	specs := make([]protean.Scenario, n)
	for i := range specs {
		sc := protean.Scenario{
			Seed: r.Int64(),
			Nodes: []protean.NodeSpec{
				{Count: 2, StoreSlots: 2, ClockScale: 1, Session: session},
				{Count: 2, StoreSlots: 4, ClockScale: 2, Session: session},
			},
			Placement: protean.PlacementSpec{Policy: "config-affinity"},
		}
		for range daemonJobs {
			k := key{apps[r.IntN(len(apps))], 1 + r.IntN(2)}
			base := scale.Items(k.workload)
			if next[k] >= base {
				return nil, fmt.Errorf("daemon specs: %d jobs of %v exhaust its %d distinct item counts", next[k]+1, k, base)
			}
			items := base/2 + permute(next[k]+off, base)
			next[k]++
			sc.Jobs = append(sc.Jobs, protean.JobSpec{Workload: k.workload, Instances: k.instances, Items: items})
		}
		specs[i] = sc
	}
	return specs, nil
}

// permute maps i into [0, n) so that n consecutive values of i land on
// n distinct results.
func permute(i, n int) int {
	stride := 7919 // prime
	for gcd(stride, n) != 1 {
		stride += 2
	}
	return i * stride % n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
