package cluster

import (
	"fmt"
	"testing"

	"protean/internal/rng"
)

// replayBenchInput builds a replay at the scenario caps: 4096 nodes in
// two node kinds (store slots 2 and 6, clock scale 1 and 2), 65536 jobs
// over four keys (one or two circuits each), Poisson arrivals tight
// enough that a defer bound of 2 keeps deferring.
func replayBenchInput() (Config, []Job, [][]Exec) {
	const nodes, nJobs = 4096, 65536
	ncs := make([]NodeConfig, nodes)
	for n := range ncs {
		ncs[n] = NodeConfig{StoreSlots: 2, ClockScale: 1}
		if n%2 == 1 {
			ncs[n] = NodeConfig{StoreSlots: 6, ClockScale: 2}
		}
	}
	s := rng.New(1)
	jobs := make([]Job, nJobs)
	execs := [][]Exec{make([]Exec, nJobs)}
	for i := range jobs {
		k := byte(s.Below(4))
		cs := []Circuit{{Key: key(k), Bytes: 20_000}}
		if i%3 == 0 {
			cs = append(cs, Circuit{Key: key((k + 1) % 4), Bytes: 20_000})
		}
		jobs[i] = Job{Label: fmt.Sprintf("job%d", k), Circuits: cs}
		execs[0][i].Cycles = 100_000 + s.Below(100_000)
	}
	cfg := Config{
		NodeConfigs: ncs,
		Seed:        1,
		Arrivals:    Arrivals{Kind: ArrivePoisson, MeanGap: 50},
		Admission:   Admission{Bound: 2, Defer: true},
	}
	return cfg, jobs, execs
}

// BenchmarkReplay times placement replay alone — no execution — for
// every built-in policy at the scenario caps, reported per placement.
func BenchmarkReplay(b *testing.B) {
	cfg, jobs, execs := replayBenchInput()
	for _, pol := range []PlacementPolicy{RoundRobin(), Random(), LeastLoaded(), Affinity(), WeightedAffinity(0)} {
		b.Run(pol.Name(), func(b *testing.B) {
			cfg.Policy = pol
			b.ReportAllocs()
			for range b.N {
				if _, err := Replay(cfg, jobs, execs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/placement")
		})
	}
}
