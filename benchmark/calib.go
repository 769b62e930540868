package main

import (
	"math"
	"sort"
	"time"
)

// calNominalMs is the calibration kernel's undisturbed time on the machine the
// benchmark was sized on. Every clock of a pass is scaled by how far the
// kernel's quiet level in that pass is from it (see scale), so a calibrated
// value reads like a raw one on that machine, and a pass on a slower or
// throttled machine reads like one on it too.
const calNominalMs = 13.5

// calElasticity is how much more than the kernel the server slows down when
// the sandbox is disturbed: over passes of unchanged code, log(server time)
// against log(kernel level) has a slope of 1.5 to 2 on every workload (the
// server allocates and chases pointers through maps; the kernel is half
// compute). Scaling in proportion, with 1, left that much of the disturbance
// in the numbers; 1.5 took a fifth to a half off the spread of most clocks
// over ten runs and added to none by more than a point.
const calElasticity = 1.5

// scale is the factor that takes a clock measured while the kernel ran in
// kernelMs to the builder's machine.
func scale(kernelMs float64) float64 {
	return math.Pow(calNominalMs/kernelMs, calElasticity)
}

const (
	calSortLen   = 64 << 10 // uint32s sorted per run
	calChaseLen  = 2 << 20  // uint32s in the permutation: 8 MB, beyond L2
	calChaseHops = 32 << 10
)

// calibrator is the allocation-free kernel: it touches only memory it
// allocated at construction, so a change in the program's heap cannot move
// it. One run mixes compute and branch work (xorshift fill + in-place
// sort.Sort) with memory latency (a dependent pointer chase).
//
// A kernel of scattered stores over 64 MB was tried in its place, because
// under disturbance the server slows down about as much as those do and
// nearly twice as much, in log terms, as this kernel. It was dropped: on a
// calm machine its own level moved by 9 % between processes while the
// server's times did not, so scaling by it added scatter where there was
// none. This kernel moves less than the server does (calElasticity) and
// never harms a calm pass.
type calibrator struct {
	keys  []uint32
	perm  []uint32
	state uint32
	at    uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{
		keys:  make([]uint32, calSortLen),
		perm:  make([]uint32, calChaseLen),
		state: 2463534242,
	}
	// Sattolo's algorithm: one cycle through every slot, so the chase never
	// settles into a short cached loop.
	for i := range c.perm {
		c.perm[i] = uint32(i)
	}
	for i := len(c.perm) - 1; i > 0; i-- {
		j := int(c.next()) % i
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	return c
}

// next is xorshift32.
func (c *calibrator) next() uint32 {
	x := c.state
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	c.state = x
	return x
}

// sort.Interface on the pointer: sort.Sort(c) boxes nothing.
func (c *calibrator) Len() int           { return len(c.keys) }
func (c *calibrator) Less(i, j int) bool { return c.keys[i] < c.keys[j] }
func (c *calibrator) Swap(i, j int)      { c.keys[i], c.keys[j] = c.keys[j], c.keys[i] }

// run executes the kernel once and returns its wall time in ms.
func (c *calibrator) run() float64 {
	start := time.Now()
	for i := range c.keys {
		c.keys[i] = c.next()
	}
	sort.Sort(c)
	at := c.at
	for i := 0; i < calChaseHops; i++ {
		at = c.perm[at]
	}
	c.at = (at ^ c.keys[0]&1) % calChaseLen // both halves feed the next run, so neither is dead code
	return ms(time.Since(start))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
