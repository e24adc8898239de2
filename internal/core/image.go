package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"protean/internal/fabric"
)

// ConfigKey identifies a circuit configuration by content: for bitstream
// images it is exactly the SharedProgram cache key (the SHA-256 of the
// static bitstream), so two images carry equal keys iff they load
// byte-identical configurations. Behavioural and model images, which have
// no bitstream, hash their defining parameters instead. The cluster
// dispatcher uses ConfigKey as its placement-affinity key: a node whose
// bitstream store already holds a job's keys can skip the cold fetches.
type ConfigKey [sha256.Size]byte

// contentKey hashes the parameters that define a bitstream-less image:
// everything that distinguishes one loadable configuration from another
// must flow in here, or two different circuits would alias one affinity
// key. kind domain-separates the constructors so a behavioural image can
// never collide with a model image of the same name.
func contentKey(kind, name string, content []byte, params ...int) ConfigKey {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(content)))
	h.Write(buf[:])
	h.Write(content)
	for _, p := range params {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	var k ConfigKey
	h.Sum(k[:0])
	return k
}

// Model is the execution model of a custom-instruction circuit loaded into
// a PFU: one Step per clock with the paper's init/done protocol, plus state
// capture for the split-configuration swap path (§4.1).
type Model interface {
	// Reset restores the power-on state of a freshly configured circuit.
	Reset()
	// Step advances one clock with the operand buses held at a and b.
	Step(a, b uint32, init bool) (out uint32, done bool)
	// SaveState reads back the CLB register contents (state frames).
	SaveState() []byte
	// LoadState restores saved state frames.
	LoadState(state []byte) error
}

// Image is a custom-instruction circuit as shipped inside an application:
// the static configuration's costs plus a way to stamp out execution-model
// instances. All host-side work — decode, placement, validation,
// compilation — happens once when the image is built; NewInstance is a
// cheap stamp-out, so the *modeled* configuration cost (StaticBytes
// crossing the port, charged by the kernel) is the only per-load expense.
// The OS identifies images by pointer; applications refer to them through
// the registration syscall.
type Image struct {
	// Name identifies the image in traces and reports.
	Name string
	// StaticBytes is the size of the static configuration (the 54 KB of
	// §4.1 for a 500-CLB PFU) that must cross the configuration port on
	// every load.
	StaticBytes int
	// StateBytes is the size of the state frame group that must be saved
	// and restored when a live circuit is swapped.
	StateBytes int
	// Stateful marks circuits whose CLB registers carry meaning BETWEEN
	// invocations (like the twofish block FSM), not just within one. A
	// stateful instruction that has been deferred to its software
	// alternative must not be silently moved back to hardware: the
	// alternative keeps its state in process memory, the circuit in CLB
	// registers, and the OS cannot translate between them.
	Stateful bool

	// key is the content identity of the configuration; see ConfigKey.
	key ConfigKey

	// newInstance stamps out one execution model of the circuit.
	newInstance func() (Model, error)

	// lint, when non-nil, reports static-analysis findings for the
	// loadable configuration; see Image.Lint.
	lint func() []string

	// timing, when non-nil, returns the static timing report for the
	// loadable configuration; see Image.Timing.
	timing func() *fabric.TimingReport
}

// Key returns the image's configuration-content identity (see ConfigKey).
func (img *Image) Key() ConfigKey { return img.key }

// NewInstance stamps out a fresh execution-model instance of the circuit
// in its power-on state. Instances share the image's compiled program (for
// fabric images) but no mutable state, so many may execute concurrently.
func (img *Image) NewInstance() (Model, error) {
	m, err := img.newInstance()
	if err != nil {
		return nil, fmt.Errorf("core: instantiating %s: %w", img.Name, err)
	}
	return m, nil
}

// NewFabricImage builds an Image from a gate-level netlist: it is
// optimised, placed onto the PFU array and encoded to a real bitstream
// exactly once. The bitstream is then decoded, validated (combinational
// loops are rejected — §2's functional security requirement) and compiled
// into a shared fabric.Compiled program through the process-wide program
// cache, so identical circuits built anywhere in the process share one
// compiled program and every instantiation is a cheap stamp-out.
func NewFabricImage(name string, n *fabric.Netlist, spec fabric.ArraySpec) (*Image, error) {
	fabric.Optimize(n)
	cfg, _, err := fabric.Place(n, spec)
	if err != nil {
		return nil, err
	}
	bits, err := fabric.EncodeStatic(cfg)
	if err != nil {
		return nil, err
	}
	return NewBitstreamImage(name, bits)
}

// NewBitstreamImage builds an Image directly from an encoded static
// bitstream — the form a real application would ship. Decode, validation
// and compilation happen once per distinct bitstream process-wide (see
// SharedProgram); the image's NewInstance stamps instances of the shared
// compiled program.
func NewBitstreamImage(name string, bits []byte) (*Image, error) {
	key := ConfigKey(sha256.Sum256(bits))
	prog, err := sharedProgram(key, bits)
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", name, err)
	}
	spec := prog.Spec()
	return &Image{
		Name:        name,
		StaticBytes: len(bits),
		StateBytes:  fabric.StateBytes(spec),
		key:         key,
		newInstance: func() (Model, error) {
			return &fabricModel{inst: prog.NewInstance()}, nil
		},
		lint:   func() []string { return lintBitstream(key, bits) },
		timing: func() *fabric.TimingReport { return timingBitstream(key, bits) },
	}, nil
}

// fabricModel adapts a compiled fabric.Instance to the Model interface,
// packing FF state into state-frame bytes.
type fabricModel struct {
	inst *fabric.Instance
}

func (m *fabricModel) Reset() { m.inst.Reset() }

func (m *fabricModel) Step(a, b uint32, init bool) (uint32, bool) {
	return m.inst.Step(a, b, init)
}

func (m *fabricModel) SaveState() []byte {
	return fabric.PackFrame(m.inst.SaveFrame())
}

func (m *fabricModel) LoadState(state []byte) error {
	frame, err := fabric.UnpackFrame(state, m.inst.Spec().CLBs())
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return m.inst.LoadFrame(frame)
}

// BehaviouralSpec describes a behavioural circuit model: a cycle-accurate
// Go implementation standing in for a gate-level design, with the same
// interface and configuration costs. The experiment workloads use these
// (the stock gate-level circuits in internal/fabric validate that the two
// kinds of model agree where both exist).
type BehaviouralSpec struct {
	Name string
	// Stateful: see Image.Stateful.
	Stateful bool
	// Spec is the PFU geometry the circuit would occupy; configuration
	// sizes derive from it.
	Spec fabric.ArraySpec
	// StateWords is how many 32-bit words of internal state the model
	// exposes to SaveState/LoadState.
	StateWords int
	// Content is any extra configuration baked into the model — the
	// behavioural analogue of bitstream bytes. A Step closure that closes
	// over parameters (a cipher key, a table) MUST surface them here, or
	// two differently-configured circuits would share one ConfigKey and
	// the cluster dispatcher would treat them as interchangeable.
	Content []byte
	// Step is the per-clock behaviour over the state slice. It must not
	// touch anything but the state slice: images may be shared between
	// concurrently running sessions.
	Step func(state []uint32, a, b uint32, init bool) (out uint32, done bool)
}

// NewBehaviouralImage builds an Image from a behavioural model. Its
// ConfigKey derives from the model's name and geometry, so images built
// from the same BehaviouralSpec anywhere in the process — or in different
// simulated nodes of a cluster — carry the same affinity key, exactly as
// their gate-level equivalents would share a bitstream hash.
func NewBehaviouralImage(spec BehaviouralSpec) *Image {
	return &Image{
		Name:        spec.Name,
		StaticBytes: fabric.StaticBytes(spec.Spec),
		StateBytes:  fabric.StateBytes(spec.Spec),
		Stateful:    spec.Stateful,
		key:         contentKey("behavioural", spec.Name, spec.Content, spec.Spec.W, spec.Spec.H, spec.StateWords, boolParam(spec.Stateful)),
		newInstance: func() (Model, error) {
			return &behaviouralModel{spec: spec, state: make([]uint32, spec.StateWords)}, nil
		},
	}
}

func boolParam(b bool) int {
	if b {
		return 1
	}
	return 0
}

// NewModelImage builds an Image whose instances come from an arbitrary
// constructor — the escape hatch for models that fit neither the fabric
// nor the behavioural constructors (tests use it for failure injection).
// Its ConfigKey derives from the name and sizes only, so callers that
// want distinct affinity keys must use distinct names.
func NewModelImage(name string, staticBytes, stateBytes int, newInstance func() (Model, error)) *Image {
	return &Image{
		Name:        name,
		StaticBytes: staticBytes,
		StateBytes:  stateBytes,
		key:         contentKey("model", name, nil, staticBytes, stateBytes),
		newInstance: newInstance,
	}
}

type behaviouralModel struct {
	spec  BehaviouralSpec
	state []uint32
}

func (m *behaviouralModel) Reset() {
	for i := range m.state {
		m.state[i] = 0
	}
}

func (m *behaviouralModel) Step(a, b uint32, init bool) (uint32, bool) {
	return m.spec.Step(m.state, a, b, init)
}

func (m *behaviouralModel) SaveState() []byte {
	out := make([]byte, 4*len(m.state))
	for i, w := range m.state {
		out[i*4] = byte(w)
		out[i*4+1] = byte(w >> 8)
		out[i*4+2] = byte(w >> 16)
		out[i*4+3] = byte(w >> 24)
	}
	return out
}

func (m *behaviouralModel) LoadState(state []byte) error {
	if len(state) != 4*len(m.state) {
		return fmt.Errorf("core: state %d bytes, want %d", len(state), 4*len(m.state))
	}
	for i := range m.state {
		m.state[i] = uint32(state[i*4]) | uint32(state[i*4+1])<<8 |
			uint32(state[i*4+2])<<16 | uint32(state[i*4+3])<<24
	}
	return nil
}
