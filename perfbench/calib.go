package main

import "time"

// The calibration kernel stands for the toolchain's own code: a
// switch-dispatched interpreter stepping through a fixed instruction
// table, with loads and stores scattered over 256 KB of memory and a
// branch on the data. It is the benchmark's code, not the program's, so a
// change to the program cannot move its time; only the machine can.

type kinst struct {
	op      uint8
	a, b, c uint8
	imm     int64
}

const (
	kAdd = iota
	kXor
	kMul
	kShr  // r[a] = r[b] >> imm
	kLoad // r[a] = mem[r[b]]
	kStore
	kBrOdd // if r[a] is odd, jump to imm
	kLoop  // r[a]--; if r[a] != 0, jump to imm
)

// kprog steps a linear congruential generator, uses its top bits as an
// address, mixes the word there back into memory, and branches on it.
var kprog = []kinst{
	{op: kMul, a: 1, b: 1, c: 2},
	{op: kAdd, a: 1, b: 1, c: 3},
	{op: kShr, a: 4, b: 1, imm: 64 - 15},
	{op: kLoad, a: 5, b: 4},
	{op: kXor, a: 5, b: 5, c: 1},
	{op: kStore, a: 4, b: 5},
	{op: kBrOdd, a: 5, imm: 8},
	{op: kAdd, a: 6, b: 6, c: 5},
	{op: kXor, a: 6, b: 6, c: 4},
	{op: kLoop, a: 7, imm: 0},
}

var kernelSink int64

// kernel runs kprog for iters iterations.
func kernel(iters int64) int64 {
	mem := make([]int64, 1<<15)
	var r [8]int64
	r[2], r[3], r[7] = 6364136223846793005, 1442695040888963407, iters
	for pc := 0; pc < len(kprog); {
		in := &kprog[pc]
		pc++
		switch in.op {
		case kAdd:
			r[in.a] = r[in.b] + r[in.c]
		case kXor:
			r[in.a] = r[in.b] ^ r[in.c]
		case kMul:
			r[in.a] = r[in.b] * r[in.c]
		case kShr:
			r[in.a] = int64(uint64(r[in.b]) >> in.imm)
		case kLoad:
			r[in.a] = mem[r[in.b]]
		case kStore:
			mem[r[in.a]] = r[in.b]
		case kBrOdd:
			if r[in.a]&1 != 0 {
				pc = int(in.imm)
			}
		case kLoop:
			r[in.a]--
			if r[in.a] != 0 {
				pc = int(in.imm)
			}
		}
	}
	return r[6]
}

const kernelIters = 1 << 20

// kernelRef is the kernel's time at the reference speed the time metrics
// are reported at: about the fastest it ran on the 2-vCPU VM the bounds
// in BENCHMARK.json were measured on (33-52 ms over a run).
const kernelRef = 33 * time.Millisecond

// calibrate times one run of the kernel.
func calibrate() time.Duration {
	t0 := time.Now()
	kernelSink += kernel(kernelIters)
	return time.Since(t0)
}
