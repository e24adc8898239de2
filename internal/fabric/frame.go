package fabric

import "fmt"

// State frames are the §4.1 swap currency: the per-CLB flip-flop
// contents, and nothing else, that must cross the configuration port when
// a live circuit is evicted. Both engines in this package — the
// interpretive PFU and the compiled Instance — exchange frames in one
// canonical form: one byte per CLB, 0 or 1, in CLB order (exactly the
// layout of the compiled program's power-on image, Compiled.ffInit). The
// compiled engine stores its registers in this very layout, so its
// SaveFrame is a copy and its LoadFrame needs no conversion.
//
// PackFrame/UnpackFrame translate between the canonical frame and the
// modeled frame-group bytes (8 CLBs per byte) that cross the simulated
// configuration port — the form core.Model.SaveState ships and
// StateBytes prices.

// SaveFrame reads back the state frame group: one byte per CLB register,
// 0 or 1, in CLB order.
func (in *Instance) SaveFrame() []uint8 {
	out := make([]uint8, len(in.ffQ))
	copy(out, in.ffQ)
	return out
}

// LoadFrame restores a state frame group. Nonzero bytes load as 1.
func (in *Instance) LoadFrame(frame []uint8) error {
	if len(frame) != len(in.ffQ) {
		return fmt.Errorf("fabric: frame has %d bytes, instance has %d CLBs", len(frame), len(in.ffQ))
	}
	for i, v := range frame {
		if v != 0 {
			in.ffQ[i] = 1
		} else {
			in.ffQ[i] = 0
		}
	}
	return nil
}

// SaveFrame reads back the PFU's state frame group in the canonical
// one-byte-per-CLB form. This is the cheap half of the split
// configuration of §4.1.
func (p *PFU) SaveFrame() []uint8 {
	out := make([]uint8, len(p.ffQ))
	for i, v := range p.ffQ {
		if v {
			out[i] = 1
		}
	}
	return out
}

// LoadFrame restores a state frame group. Nonzero bytes load as 1.
func (p *PFU) LoadFrame(frame []uint8) error {
	if len(frame) != len(p.ffQ) {
		return fmt.Errorf("fabric: frame has %d bytes, PFU has %d CLBs", len(frame), len(p.ffQ))
	}
	for i, v := range frame {
		p.ffQ[i] = v != 0
	}
	return nil
}

// PackFrame packs a canonical frame into modeled frame-group bytes,
// 8 CLB registers per byte, CLB i in byte i/8 bit i%8 — the form that
// crosses the simulated configuration port.
func PackFrame(frame []uint8) []byte {
	out := make([]byte, (len(frame)+7)/8)
	for i, v := range frame {
		if v != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// UnpackFrame expands modeled frame-group bytes back into the canonical
// frame for a circuit with n CLBs.
func UnpackFrame(data []byte, n int) ([]uint8, error) {
	if len(data) != (n+7)/8 {
		return nil, fmt.Errorf("fabric: frame group is %d bytes, want %d for %d CLBs", len(data), (n+7)/8, n)
	}
	frame := make([]uint8, n)
	for i := range frame {
		frame[i] = data[i/8] >> (i % 8) & 1
	}
	return frame, nil
}
