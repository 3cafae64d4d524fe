package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// Reference-normalised time.
//
// The benchmark runs on shared hosts whose speed drifts for minutes at a
// time: on a 2-vCPU cloud VM the same cold-patrol run read 0.62 s and
// 1.3 s within an hour, with no CPU steal reported, because neighbours
// share the cores' caches and memory bus. Repetition inside one run
// cannot remove drift that outlasts the run, so every gated time is
// reported in reference seconds: wall time × refNominal ÷ the wall time of
// a fixed reference kernel timed next to it in the same process. The
// kernel is the benchmark's own code and calls nothing in the repository,
// so no change to the program moves it, and a program twice as slow reads
// twice as long. Its mix (a branchy sort, then visits to a line-state
// array with a byte-table CRC, a lookup in a larger table and a float
// log/expm1) resembles the engine's, so contention slows both alike.
// Wall times are printed beside the normalised ones.

// refNominal is about the kernel's wall time on the 2-vCPU Intel Xeon
// VM the baseline was measured on, so a reference second there is about
// a wall second. It is a unit: changing it rescales every gated time.
const refNominal = 0.040

// The kernel's working set is that of the default 16 Ki-line region:
// 64-byte lines, 8 sort keys and 64 lookup-table entries per line, 7 MiB
// in all. It tracked the host's drift on the 1 Ki-line specs of
// scrubd-mix as well as a kernel sized to them did.
const (
	refLines    = 1 << 14
	refSortKeys = 8 * refLines
	refTable    = 64 * refLines
	refVisits   = 60_000 // line visits per probe
)

// refKernel owns the kernel's buffers. They live outside the Go heap, so
// neither the garbage collector's pacing nor its work changes with them;
// peak RSS is reported without them.
type refKernel struct {
	mem     []byte
	keys    []float64 // the sort's input, fixed at construction
	scratch []float64
	lines   []uint64
	table   []uint32
	crc     [256]uint32
	walls   []float64
	sink    uint64
}

func newRefKernel() (*refKernel, error) {
	size := 8*(2*refSortKeys+8*refLines) + 4*refTable
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference kernel buffers: %w", err)
	}
	k := &refKernel{mem: mem}
	off := 0
	f64 := func(n int) []float64 {
		s := unsafe.Slice((*float64)(unsafe.Pointer(&mem[off])), n)
		off += 8 * n
		return s
	}
	k.keys, k.scratch = f64(refSortKeys), f64(refSortKeys)
	k.lines = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[off])), 8*refLines)
	off += 8 * 8 * refLines
	k.table = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[off])), refTable)

	// Fill every page, so the buffers are resident from the first probe
	// on and peak RSS can be reported without them.
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.keys {
		x = xorshift(x)
		k.keys[i] = float64(x >> 11)
	}
	for i := range k.lines {
		x = xorshift(x)
		k.lines[i] = x
	}
	for i := range k.table {
		k.table[i] = uint32(i) * 2654435761
	}
	for i := range k.crc {
		c := uint32(i)
		for b := 0; b < 8; b++ {
			if c&1 == 1 {
				c = c>>1 ^ 0xEDB88320
			} else {
				c >>= 1
			}
		}
		k.crc[i] = c
	}
	return k, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// probe runs the kernel once and returns its wall time in seconds; every
// probe is kept for the run's report.
func (k *refKernel) probe() float64 {
	start := time.Now()
	copy(k.scratch, k.keys)
	sort.Float64s(k.scratch)
	x := uint64(0x2545F4914F6CDD1D)
	var acc uint32
	f := 0.0
	for i := 0; i < refVisits; i++ {
		x = xorshift(x)
		line := k.lines[(x&(refLines-1))*8:][:8]
		crc := ^uint32(0)
		for _, w := range line {
			for b := 0; b < 64; b += 8 {
				crc = k.crc[byte(crc)^byte(w>>b)] ^ crc>>8
			}
		}
		acc += k.table[crc&(refTable-1)]
		line[0] ^= uint64(acc)
		if i&3 == 0 {
			f -= math.Expm1(-math.Log(float64(x>>11)/(1<<53) + 1e-300))
		}
	}
	wall := time.Since(start).Seconds()
	k.sink += uint64(acc) + math.Float64bits(f) + math.Float64bits(k.scratch[refSortKeys/2])
	k.walls = append(k.walls, wall)
	return wall
}

// scale converts a wall time measured next to a probe of refWall
// seconds into reference seconds.
func scale(refWall float64) float64 { return refNominal / refWall }

// residentMB is the size of the kernel's buffers, all resident.
func (k *refKernel) residentMB() float64 { return float64(len(k.mem)) / (1 << 20) }

func (k *refKernel) close() error { return syscall.Munmap(k.mem) }
