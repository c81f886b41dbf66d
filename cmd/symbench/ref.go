package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// The 2-vCPU VM the benchmark was calibrated on is shared, and its speed
// drifts: over 20 s windows a fixed workload's time has a quartile spread
// of about 10% of its median, with swings up to 30%. Every run therefore
// also times refKernel before each tool run, and each rep's times are
// scaled by refNominal over the kernel's median time in that rep: they read
// as times on a machine that runs the kernel in refNominal. The kernel is
// benchmark code, so no change to the engine can move it. Raw times stay in
// the -json report, and machine.ref_ms reports the kernel's median.
const refNominal = time.Millisecond

var refInput = make([]byte, 16<<10)

// refSink keeps the kernel's result live.
var refSink uint64

type refNode struct {
	l, r *refNode
	v    uint64
}

func refTree(depth int, v uint64) *refNode {
	if depth == 0 {
		return &refNode{v: v}
	}
	return &refNode{refTree(depth-1, 2*v), refTree(depth-1, 2*v+1), v}
}

func (n *refNode) sum() uint64 {
	if n.l == nil {
		return n.v
	}
	return n.v + n.l.sum() + n.r.sum()
}

// refKernel does a fixed amount of the kinds of work an exploration does
// (hash-map updates, sorting, building and walking small pointer-linked
// heap objects, hashing bytes) and returns how long it took.
func refKernel() time.Duration {
	t0 := time.Now()
	m := map[uint64]uint64{}
	keys := make([]uint64, 0, 1<<13)
	x := uint64(88172645463325252)
	for i := range 1 << 13 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&0x3fff] += uint64(i)
		keys = append(keys, x)
	}
	slices.Sort(keys)
	h := sha256.Sum256(refInput)
	refSink += refTree(12, 1).sum() + keys[0] + uint64(len(m)) + uint64(h[0])
	return time.Since(t0)
}
