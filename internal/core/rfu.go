package core

import (
	"fmt"

	"protean/internal/arm"
)

// Coprocessor register-space conventions for the RFU on p1. CDP executes a
// custom instruction with CID = opc2<<4 | opc1 (7 bits per process);
// MCR/MRC move data per the opc1 selector below.
const (
	// OpData (user): MCR/MRC p1, 0, Rt, cN, c0 moves Rt<->RFU register N.
	OpData = 0
	// OpCapture (user): the software-dispatch special registers (§4.3).
	// MRC p1, 1, Rt, c0 reads operand A; c1 reads operand B;
	// MCR p1, 1, Rt, c2 writes the result, retiring it to the captured
	// destination register.
	OpCapture = 1
	// OpPID (privileged): MCR/MRC p1, 2, Rt, c0 accesses the PID register.
	OpPID = 2
	// OpCounter (privileged): MRC p1, 3, Rt, cN reads PFU N's usage
	// counter; MCR clears it (§4.5).
	OpCounter = 3
	// OpCaptureSave (privileged): MCR/MRC p1, 4, Rt, c0..c3 save/restore
	// the capture registers across context switches (§4.3).
	OpCaptureSave = 4
)

// NumRegs is the RFU register file size (§5: 16 × 32 bits).
const NumRegs = 16

// Stats aggregates RFU event counters.
type Stats struct {
	HWDispatches  uint64 // CDP resolved to a PFU
	SWDispatches  uint64 // CDP resolved to a software alternative
	Faults        uint64 // CDP missed both TLBs
	Completions   uint64 // custom instructions that raised done
	Aborts        uint64 // custom instructions interrupted mid-flight
	ExecCycles    uint64 // cycles spent clocking PFUs
	ConfigLoads   uint64 // full static configurations loaded
	StateSaves    uint64 // state frame groups read back
	StateRestores uint64 // state frame groups loaded
}

// PFUInfo is the observable state of one PFU slot.
type PFUInfo struct {
	Loaded  bool
	Image   string
	Counter uint32
	Status  bool
}

type pfu struct {
	model   Model
	image   *Image
	status  bool   // the 1-bit done->init status register (§4.4)
	counter uint32 // completions since last OS clear (§4.5)
}

// RFU is the reconfigurable function unit, attached to the ARM core as
// coprocessor p1.
type RFU struct {
	// Regs is the RFU register file. It belongs to the running process;
	// the kernel swaps it on context switches.
	Regs [NumRegs]uint32

	// PID is the processor's process-ID register, combined with
	// instruction CIDs to form dispatch tuples (§4.2).
	PID uint32

	// TLB1 maps (PID,CID) to a PFU number; TLB2 maps to the address of a
	// registered software alternative.
	TLB1 *TLB
	TLB2 *TLB

	// DispatchCycles is the issue latency added by the dispatch lookup.
	DispatchCycles uint32

	// Stats collects event counters.
	Stats Stats

	pfus []pfu

	// Operand capture registers for software dispatch (§4.3).
	capA, capB, capRes uint32
	capDst             uint32
	capValid           bool

	// FaultHook, if set, observes dispatch faults (for tracing).
	FaultHook func(t IDTuple)
}

// Config sets the RFU shape.
type Config struct {
	PFUs        int // number of PFUs (the ProteanARM uses 4)
	TLB1Entries int
	TLB2Entries int
}

// DefaultConfig is the ProteanARM arrangement: 4 PFUs (§5) and 16-entry
// dispatch TLBs.
var DefaultConfig = Config{PFUs: 4, TLB1Entries: 16, TLB2Entries: 16}

// New builds an RFU.
func New(cfg Config) *RFU {
	if cfg.PFUs <= 0 {
		cfg.PFUs = DefaultConfig.PFUs
	}
	if cfg.TLB1Entries <= 0 {
		cfg.TLB1Entries = DefaultConfig.TLB1Entries
	}
	if cfg.TLB2Entries <= 0 {
		cfg.TLB2Entries = DefaultConfig.TLB2Entries
	}
	r := &RFU{
		TLB1:           NewTLB(cfg.TLB1Entries),
		TLB2:           NewTLB(cfg.TLB2Entries),
		DispatchCycles: 1,
		pfus:           make([]pfu, cfg.PFUs),
	}
	r.Reset()
	return r
}

// Reset models power-on: status registers all set (§4.4: "on reset all the
// status registers are set to 1"), counters cleared, nothing loaded.
func (r *RFU) Reset() {
	for i := range r.pfus {
		r.pfus[i] = pfu{status: true}
	}
	r.capValid = false
}

// NumPFUs reports the PFU count.
func (r *RFU) NumPFUs() int { return len(r.pfus) }

// PFU reports the observable state of a PFU slot.
func (r *RFU) PFU(i int) PFUInfo {
	p := &r.pfus[i]
	info := PFUInfo{Loaded: p.model != nil, Counter: p.counter, Status: p.status}
	if p.image != nil {
		info.Image = p.image.Name
	}
	return info
}

// --- configuration port (used by the OS; §4.1) ---

// LoadInstance configures a PFU slot with a stamped-out instance of an
// image and resets it — the instance-based configuration port. The caller
// (normally the CIS) stamps the instance from the image's shared compiled
// program; the returned byte count is the *modeled* configuration-port
// traffic (the full static frame group) the OS must charge for, unchanged
// by the host-side compile-once rework.
func (r *RFU) LoadInstance(pfuIdx int, img *Image, m Model) (int, error) {
	if pfuIdx < 0 || pfuIdx >= len(r.pfus) {
		return 0, fmt.Errorf("core: PFU %d out of range", pfuIdx)
	}
	if m == nil {
		return 0, fmt.Errorf("core: configuring %s: nil instance", img.Name)
	}
	m.Reset()
	r.pfus[pfuIdx] = pfu{model: m, image: img, status: true}
	r.Stats.ConfigLoads++
	return img.StaticBytes, nil
}

// LoadImage stamps a fresh instance of an image and configures a PFU with
// it — the convenience wrapper over LoadInstance.
func (r *RFU) LoadImage(pfuIdx int, img *Image) (int, error) {
	if pfuIdx < 0 || pfuIdx >= len(r.pfus) {
		return 0, fmt.Errorf("core: PFU %d out of range", pfuIdx)
	}
	m, err := img.NewInstance()
	if err != nil {
		return 0, err
	}
	return r.LoadInstance(pfuIdx, img, m)
}

// SwappedCircuit is the state the OS holds for a circuit it has swapped off
// the array: the state frames plus the RFU-side status bit and counter.
type SwappedCircuit struct {
	Image   *Image
	State   []byte
	Status  bool
	Counter uint32
}

// SwapOut reads back a PFU's state frames and invalidates the slot,
// returning what the OS needs to later re-instantiate the circuit
// mid-instruction. The byte count is the readback traffic.
func (r *RFU) SwapOut(pfuIdx int) (*SwappedCircuit, int, error) {
	if pfuIdx < 0 || pfuIdx >= len(r.pfus) {
		return nil, 0, fmt.Errorf("core: PFU %d out of range", pfuIdx)
	}
	p := &r.pfus[pfuIdx]
	if p.model == nil {
		return nil, 0, fmt.Errorf("core: PFU %d is empty", pfuIdx)
	}
	sc := &SwappedCircuit{
		Image:   p.image,
		State:   p.model.SaveState(),
		Status:  p.status,
		Counter: p.counter,
	}
	r.pfus[pfuIdx] = pfu{status: true}
	r.Stats.StateSaves++
	return sc, len(sc.State), nil
}

// Restore configures a PFU with a previously swapped circuit: the state
// frames restore into a *freshly stamped* instance of the cached static
// image (§4.1's split configuration), plus the RFU-side status bit and
// counter. The byte count covers both frame sections — full static frames
// and the tiny state frame group.
func (r *RFU) Restore(pfuIdx int, sc *SwappedCircuit) (int, error) {
	m, err := sc.Image.NewInstance()
	if err != nil {
		return 0, err
	}
	n, err := r.LoadInstance(pfuIdx, sc.Image, m)
	if err != nil {
		return 0, err
	}
	if err := m.LoadState(sc.State); err != nil {
		return 0, err
	}
	r.pfus[pfuIdx].status = sc.Status
	r.pfus[pfuIdx].counter = sc.Counter
	r.Stats.StateRestores++
	return n + len(sc.State), nil
}

// Unload drops a PFU's circuit without state readback.
func (r *RFU) Unload(pfuIdx int) {
	if pfuIdx >= 0 && pfuIdx < len(r.pfus) {
		r.pfus[pfuIdx] = pfu{status: true}
	}
}

// Counter reads a PFU usage counter (the OS-visible §4.5 register).
func (r *RFU) Counter(pfuIdx int) uint32 { return r.pfus[pfuIdx].counter }

// ClearCounter zeroes a PFU usage counter.
func (r *RFU) ClearCounter(pfuIdx int) { r.pfus[pfuIdx].counter = 0 }

// CaptureState is the operand-capture register file, saved and restored by
// the OS across context switches (§4.3).
type CaptureState struct {
	A, B, Res, Dst uint32
	Valid          bool
}

// Capture reads the operand-capture registers.
func (r *RFU) Capture() CaptureState {
	return CaptureState{A: r.capA, B: r.capB, Res: r.capRes, Dst: r.capDst, Valid: r.capValid}
}

// SetCapture restores the operand-capture registers.
func (r *RFU) SetCapture(cs CaptureState) {
	r.capA, r.capB, r.capRes, r.capDst, r.capValid = cs.A, cs.B, cs.Res, cs.Dst, cs.Valid
}

// --- coprocessor interface (arm.Coprocessor) ---

var _ arm.Coprocessor = (*RFU)(nil)

// CDP dispatches a custom-instruction execution per §4.2: TLB1 hit runs
// hardware, TLB2 hit becomes a branch-and-link to the software alternative
// with operands captured, a double miss raises the undefined-instruction
// trap for the OS.
func (r *RFU) CDP(opc1, crd, crn, crm, opc2 uint32, user bool) arm.CDPOutcome {
	cid := opc2<<4 | opc1
	key := IDTuple{PID: r.PID, CID: cid}
	if pfuIdx, ok := r.TLB1.Lookup(key); ok {
		p := &r.pfus[pfuIdx]
		if p.model != nil {
			r.Stats.HWDispatches++
			return arm.CDPOutcome{
				Action: arm.CDPExec,
				Cycles: r.DispatchCycles,
				Exec: &pfuExec{
					r:   r,
					pfu: int(pfuIdx),
					a:   r.Regs[crn&0xF],
					b:   r.Regs[crm&0xF],
					dst: crd & 0xF,
				},
			}
		}
		// Stale mapping onto an empty PFU: treat as a fault so the OS can
		// repair its tables.
		r.TLB1.Remove(key)
	}
	if addr, ok := r.TLB2.Lookup(key); ok {
		// Software dispatch: fill the capture registers and branch.
		r.capA = r.Regs[crn&0xF]
		r.capB = r.Regs[crm&0xF]
		r.capDst = crd & 0xF
		r.capValid = true
		r.Stats.SWDispatches++
		return arm.CDPOutcome{Action: arm.CDPBranchLink, Addr: addr, Cycles: r.DispatchCycles}
	}
	r.Stats.Faults++
	if r.FaultHook != nil {
		r.FaultHook(key)
	}
	return arm.CDPOutcome{Action: arm.CDPUndefined}
}

// MCR implements core-to-RFU moves.
func (r *RFU) MCR(opc1, crn, crm, opc2 uint32, value uint32, user bool) bool {
	switch opc1 {
	case OpData:
		r.Regs[crn&0xF] = value
		return true
	case OpCapture:
		if crn == 2 {
			// Result store: retires to the captured destination register.
			r.capRes = value
			r.Regs[r.capDst&0xF] = value
			r.capValid = false
			return true
		}
		return false
	case OpPID:
		if user {
			return false
		}
		r.PID = value
		return true
	case OpCounter:
		if user {
			return false
		}
		if int(crn) >= len(r.pfus) {
			return false
		}
		r.pfus[crn].counter = 0
		return true
	case OpCaptureSave:
		if user {
			return false
		}
		switch crn {
		case 0:
			r.capA = value
		case 1:
			r.capB = value
		case 2:
			r.capRes = value
		case 3:
			r.capDst = value & 0xF
			r.capValid = value&0x100 != 0
		default:
			return false
		}
		return true
	}
	return false
}

// MRC implements RFU-to-core moves.
func (r *RFU) MRC(opc1, crn, crm, opc2 uint32, user bool) (uint32, bool) {
	switch opc1 {
	case OpData:
		return r.Regs[crn&0xF], true
	case OpCapture:
		switch crn {
		case 0:
			return r.capA, true
		case 1:
			return r.capB, true
		case 2:
			return r.capRes, true
		}
		return 0, false
	case OpPID:
		if user {
			return 0, false
		}
		return r.PID, true
	case OpCounter:
		if user {
			return 0, false
		}
		if int(crn) >= len(r.pfus) {
			return 0, false
		}
		return r.pfus[crn].counter, true
	case OpCaptureSave:
		if user {
			return 0, false
		}
		switch crn {
		case 0:
			return r.capA, true
		case 1:
			return r.capB, true
		case 2:
			return r.capRes, true
		case 3:
			v := r.capDst
			if r.capValid {
				v |= 0x100
			}
			return v, true
		}
		return 0, false
	}
	return 0, false
}

// pfuExec clocks a PFU through one custom-instruction execution. The
// status register implements §4.4: the circuit sees init = status at each
// clock, and status latches done, so a fresh instruction starts with init
// high, execution proceeds with init low, and an aborted instruction
// resumes transparently on reissue.
type pfuExec struct {
	r    *RFU
	pfu  int
	a, b uint32
	dst  uint32
}

// Tick implements arm.CopExec.
func (e *pfuExec) Tick() bool {
	p := &e.r.pfus[e.pfu]
	init := p.status
	out, done := p.model.Step(e.a, e.b, init)
	p.status = done
	e.r.Stats.ExecCycles++
	if done {
		e.r.Regs[e.dst] = out
		// Counted at completion, not issue, so interrupted-and-reissued
		// instructions count once (§4.5).
		p.counter++
		e.r.Stats.Completions++
	}
	return done
}

// Abort implements arm.CopExec: nothing to do — the status register
// already holds 0 (the last done), so the reissued instruction continues
// where it left off.
func (e *pfuExec) Abort() {
	e.r.Stats.Aborts++
}
