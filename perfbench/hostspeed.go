package main

import (
	"math/rand"
	"slices"
	"time"
)

// The host this benchmark was written on is a shared VM whose speed
// swings by up to 2x over seconds and drifts over minutes (NOTES.md,
// "Host speed"). Every workload slows and speeds up together, so the
// end-to-end host times are divided by the speed of a fixed piece of
// benchmark-owned work, the host probe, timed right after every op. The
// probe calls no code of the program, so a change to the program moves
// the normalised times by exactly as much as it moves the raw ones.

// probeRefMS is the probe's time at the reference host speed; a time
// normalised to that speed is raw × probeRefMS / probe time. It is a
// fixed constant so that normalised times of different runs, seeds and
// revisions compare.
const probeRefMS = 2.0

// probeWindow is the half-width, in ops, of the window of probes whose
// median gives the host speed during an op.
const probeWindow = 4

// hostProbe is the fixed work: a walk of a shuffled linked list, map
// lookups and a sort, the kinds of memory access the program's kernels
// and runtime make. It allocates nothing, so the program's garbage does
// not change how much collector work lands in it, and it is timed on its
// second pass, so the op before it does not change how much of its data
// is cached: run cold right after an op, it read 16-19% slower.
type hostProbe struct {
	next []uint32 // a single cycle through every index, in shuffled order
	m    map[uint32]uint32
	src  []uint32
	buf  []uint32
	sink uint32
}

func newHostProbe() *hostProbe {
	const nodes, keys, sorted = 1 << 16, 1 << 13, 1 << 14
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(nodes)
	p := &hostProbe{next: make([]uint32, nodes), m: make(map[uint32]uint32, keys),
		src: make([]uint32, sorted), buf: make([]uint32, sorted)}
	for i := range perm {
		p.next[perm[i]] = uint32(perm[(i+1)%nodes])
	}
	for k := uint32(0); k < keys; k++ {
		p.m[k*2654435761] = k
	}
	for i := range p.src {
		p.src[i] = rng.Uint32()
	}
	return p
}

// time runs the probe twice and returns the second pass's host time in ms.
func (p *hostProbe) time() float64 {
	p.pass()
	t0 := time.Now()
	p.pass()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func (p *hostProbe) pass() {
	s := uint32(0)
	for i := 0; i < len(p.next); i++ {
		s = p.next[s]
	}
	for k := uint32(0); k < uint32(len(p.m)); k++ {
		s += p.m[(k^s&7)*2654435761]
	}
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	p.sink = s + p.buf[len(p.buf)/2]
}

// normalise scales each op's host time ms[i] to the reference host speed,
// using the median of the probe times probes[i-probeWindow..i+probeWindow].
func normalise(ms, probes []float64) []float64 {
	out := make([]float64, len(ms))
	for i := range ms {
		lo, hi := max(i-probeWindow, 0), min(i+probeWindow+1, len(probes))
		out[i] = ms[i] * probeRefMS / median(probes[lo:hi])
	}
	return out
}
