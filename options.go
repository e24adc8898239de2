package protean

import (
	"fmt"
	"io"
)

// Option configures a Session at construction time.
//
// Options are the imperative sugar over the declarative Scenario spec:
// every modeled option corresponds to a SessionSpec field, and a Session
// is a fleet of one (see Start). New code that wants a portable,
// serializable description of a run should declare a Scenario instead of
// wiring options; the option constructors remain fully supported.
type Option func(*config) error

type config struct {
	scale        Scale
	quantum      uint32
	policy       Policy
	soft         bool
	sharing      bool
	seed         int64
	costs        CostModel
	costsSet     bool
	traceCap     int
	fullReadback bool
	pageIn       uint32
	atomicCDP    bool
	maxFaults    uint64
	tlb1         int
	pfus         int
	budget       uint64
	lintWarnings bool
	timingStats  bool
	sink         Sink
	disasmW      io.Writer
	disasmN      int
	metrics      bool
	traceOut     io.Writer
}

// WithQuantum sets the scheduling quantum in cycles. 0 (the default)
// means the session scale's 10 ms quantum.
func WithQuantum(cycles uint32) Option {
	return func(c *config) error {
		c.quantum = cycles
		return nil
	}
}

// WithPolicy selects the CIS circuit-replacement policy.
func WithPolicy(p Policy) Option {
	return func(c *config) error {
		if p < PolicyRoundRobin || p > PolicySecondChance {
			return fmt.Errorf("protean: unknown policy %v", p)
		}
		c.policy = p
		return nil
	}
}

// WithSoftDispatch defers to registered software alternatives under
// contention instead of swapping circuits (§5.1.2). Auto-mode registry
// workloads register their alternatives only when this is on.
func WithSoftDispatch(on bool) Option {
	return func(c *config) error {
		c.soft = on
		return nil
	}
}

// WithSharing lets identical images share one PFU instance (§5.1 notes
// the final system would do this; the paper's runs disable it).
func WithSharing(on bool) Option {
	return func(c *config) error {
		c.sharing = on
		return nil
	}
}

// WithScale shrinks the session by an integer factor while preserving the
// ratios that shape the paper's figures (see Scale). It sets the
// configuration-port bandwidth, the kernel cost model, and the defaults
// for quantum and per-workload work-unit counts.
func WithScale(factor int) Option {
	return func(c *config) error {
		c.scale = Scale{Factor: factor}
		return nil
	}
}

// WithSeed seeds the random replacement policy.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithTrace records the last capacity kernel events and exposes them as
// Result.Trace.
func WithTrace(capacity int) Option {
	return func(c *config) error {
		if capacity <= 0 {
			return fmt.Errorf("protean: trace capacity must be positive, got %d", capacity)
		}
		c.traceCap = capacity
		return nil
	}
}

// WithMetrics collects the run's statistics into a deterministic
// metrics snapshot, exposed as Result.Metrics: kernel, CIS, RFU and
// dispatch-TLB counters under Prometheus-style names, built from serial
// post-run code so the snapshot bytes depend only on the modeled run.
// See Metrics for the snapshot operations (MarshalJSON, WriteProm,
// Diff).
func WithMetrics() Option {
	return func(c *config) error {
		c.metrics = true
		return nil
	}
}

// WithTraceOut writes the run's modeled-cycle timeline to w as Chrome
// trace-event JSON (open it in Perfetto or chrome://tracing): one track
// per process with its sojourn span, instants for every retained kernel
// event (switches, faults, config loads, state save/restore, evictions),
// and an explicit truncation warning if the event ring overflowed.
// Implies a default WithTrace ring when none is configured; timestamps
// are simulated cycles rendered as microseconds.
func WithTraceOut(w io.Writer) Option {
	return func(c *config) error {
		if w == nil {
			return fmt.Errorf("protean: trace output writer must be non-nil")
		}
		c.traceOut = w
		return nil
	}
}

// WithCostModel overrides the kernel cycle cost model (the default is
// DefaultCosts divided by the session scale). The all-zero model is
// reserved as the kernel's "use defaults" sentinel and is rejected; to
// approximate a free kernel, pass 1-cycle costs.
func WithCostModel(cm CostModel) Option {
	return func(c *config) error {
		if cm == (CostModel{}) {
			return fmt.Errorf("protean: zero CostModel means \"use defaults\" in the kernel; pass nonzero (e.g. 1-cycle) costs")
		}
		c.costs = cm
		c.costsSet = true
		return nil
	}
}

// WithFullReadback disables the §4.1 split configuration: evicting a
// circuit reads back the whole static image instead of just the state
// frames (the A2 ablation).
func WithFullReadback(on bool) Option {
	return func(c *config) error {
		c.fullReadback = on
		return nil
	}
}

// WithPageInCycles models §5.1.3's virtual-memory pressure: every full
// configuration load first pages the bitstream in from disk, costing this
// many extra cycles. 0 = bitstreams cached in RAM (the paper's runs).
func WithPageInCycles(cycles uint32) Option {
	return func(c *config) error {
		c.pageIn = cycles
		return nil
	}
}

// WithAtomicCDP makes custom instructions uninterruptible (the §4.4
// design alternative), for interrupt-latency studies.
func WithAtomicCDP(on bool) Option {
	return func(c *config) error {
		c.atomicCDP = on
		return nil
	}
}

// WithMaxFaults kills any process that takes more than n dispatch faults
// (runaway guard); 0 disables.
func WithMaxFaults(n uint64) Option {
	return func(c *config) error {
		c.maxFaults = n
		return nil
	}
}

// WithTLB1Entries overrides the dispatch-TLB size (0 = hardware default).
func WithTLB1Entries(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("protean: TLB1 entries must be >= 0, got %d", n)
		}
		c.tlb1 = n
		return nil
	}
}

// WithPFUs overrides the number of programmable function units on the
// reconfigurable array (0 = the ProteanARM's 4). Fewer PFUs force more
// circuit swapping for the same mix — the knob heterogeneous fleet
// scenarios use to model big and small workstations side by side.
func WithPFUs(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("protean: PFU count must be >= 0, got %d", n)
		}
		c.pfus = n
		return nil
	}
}

// WithBudget caps the simulated cycles of Session.Run; exceeding it is an
// error. 0 means a generous default (2^40 cycles).
func WithBudget(cycles uint64) Option {
	return func(c *config) error {
		c.budget = cycles
		return nil
	}
}

// WithLintWarnings lints every circuit image a spawned program registers
// (see Image.Lint) and emits one EventLintWarning per finding through
// the session's progress sink, once per distinct configuration per
// session. Findings are diagnostics only — dead logic cones, constant
// LUTs, unused flip-flops, floating inputs — and never affect the run;
// behavioural images, which carry no netlist, report nothing. Pair it
// with WithProgress, or the warnings have nowhere to go.
func WithLintWarnings() Option {
	return func(c *config) error {
		c.lintWarnings = true
		return nil
	}
}

// WithTimingStats runs static timing analysis over every circuit image a
// spawned program registers (see Image.Timing) and emits one EventTiming
// with the critical-path summary through the session's progress sink,
// once per distinct configuration per session. The analysis is purely
// informational — depth in LUT levels under the fabric's unit-delay
// model — and never affects the run; behavioural images, which carry no
// netlist, report nothing. Pair it with WithProgress, or the reports
// have nowhere to go.
func WithTimingStats() Option {
	return func(c *config) error {
		c.timingStats = true
		return nil
	}
}

// WithProgress streams structured progress events (run start, process
// exits, run completion) to sink. The sink must be safe for concurrent
// use; see WriterSink for a ready-made line renderer.
func WithProgress(sink Sink) Option {
	return func(c *config) error {
		c.sink = sink
		return nil
	}
}

// WithDisasm streams a disassembly of the first maxInstrs executed
// instructions to w — the -disasm debugging aid of cmd/proteansim.
func WithDisasm(w io.Writer, maxInstrs int) Option {
	return func(c *config) error {
		if w == nil || maxInstrs <= 0 {
			return fmt.Errorf("protean: disasm needs a writer and a positive instruction count")
		}
		c.disasmW = w
		c.disasmN = maxInstrs
		return nil
	}
}
