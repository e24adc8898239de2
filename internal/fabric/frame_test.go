package fabric

import (
	"math/rand"
	"testing"
)

// TestFrameShimsMatch locks the canonical byte frame across both scalar
// engines: stepped alike, the compiled instance and the interpretive PFU
// save the same 0/1 frame, and each restores what the other saved.
func TestFrameShimsMatch(t *testing.T) {
	n := SeqMul16()
	cfg := placeT(t, n)
	prog := compileT(t, cfg)
	inst := prog.NewInstance()
	pfu, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 7; s++ {
		inst.Step(0x1234, 0x5678, s == 0)
		pfu.Step(0x1234, 0x5678, s == 0)
	}
	instFrame, pfuFrame := inst.SaveFrame(), pfu.SaveFrame()
	if len(instFrame) != len(pfuFrame) {
		t.Fatalf("instance frame %d bytes vs PFU frame %d bytes", len(instFrame), len(pfuFrame))
	}
	for i := range instFrame {
		if instFrame[i] > 1 || pfuFrame[i] > 1 {
			t.Fatalf("non-canonical frame byte at CLB %d: instance %d, PFU %d", i, instFrame[i], pfuFrame[i])
		}
		if instFrame[i] != pfuFrame[i] {
			t.Fatalf("instance/PFU frames disagree at CLB %d", i)
		}
	}
	// Each engine must load what the other saved.
	fresh := prog.NewInstance()
	if err := fresh.LoadFrame(pfuFrame); err != nil {
		t.Fatal(err)
	}
	freshPFU, err := NewPFU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := freshPFU.LoadFrame(instFrame); err != nil {
		t.Fatal(err)
	}
	a1, _ := fresh.Step(0x1234, 0x5678, false)
	a2, _ := inst.Step(0x1234, 0x5678, false)
	if a1 != a2 {
		t.Fatalf("frame-restored instance diverged: %#x vs %#x", a1, a2)
	}
	p1, _ := freshPFU.Step(0x1234, 0x5678, false)
	p2, _ := pfu.Step(0x1234, 0x5678, false)
	if p1 != p2 {
		t.Fatalf("frame-restored PFU diverged: %#x vs %#x", p1, p2)
	}
}

// TestPackUnpackFrame round-trips the modeled frame-group packing.
func TestPackUnpackFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 7, 8, 9, 150} {
		frame := make([]uint8, n)
		for i := range frame {
			frame[i] = uint8(rng.Intn(2))
		}
		back, err := UnpackFrame(PackFrame(frame), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			if back[i] != frame[i] {
				t.Fatalf("n=%d: byte %d changed across pack/unpack", n, i)
			}
		}
	}
	if _, err := UnpackFrame([]byte{0}, 9); err == nil {
		t.Fatal("short frame group must be rejected")
	}
}
