// Package channel implements the paper's attack suite over the
// simulated machine: prime&probe receivers for every cache-like
// resource (L1-D, L1-I, L2, LLC, TLB, BTB, BHB), covert-channel senders
// (syscall trojan, cache-footprint trojan, flush-latency trojan,
// interrupt trojan), the cross-core LLC spy, and runners that produce
// (input, output) datasets for the MI toolchain.
package channel

import (
	"fmt"
	"sync/atomic"

	"timeprotection/internal/cache"
	"timeprotection/internal/core"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
)

// batching selects the probe primitives' stepping mode: batched (one
// Env.LoadBatch/ExecBatch walk per probe, the default) or scalar (one
// Env call per line). The two are equivalent by construction — the
// batch path performs the identical per-access sequence — and the
// differential tests run every artefact both ways to prove it.
var batching atomic.Bool

func init() { batching.Store(true) }

// SetBatching toggles batched probe stepping process-wide (tests).
func SetBatching(on bool) { batching.Store(on) }

// ProbeBuffer is a user-mapped buffer used for prime&probe: the receiver
// fills cache sets with its own lines (prime) and later measures how
// long re-touching them takes (probe); evictions by another domain show
// up as added latency.
type ProbeBuffer struct {
	Base     uint64
	Pages    int
	Frames   []memory.PFN
	LineSize int
}

// NewProbeBuffer maps pages of memory in a domain at base.
func NewProbeBuffer(sys *core.System, dom int, base uint64, pages int) (*ProbeBuffer, error) {
	frames, err := sys.MapBuffer(dom, base, pages)
	if err != nil {
		return nil, fmt.Errorf("probe buffer: %w", err)
	}
	return &ProbeBuffer{
		Base:     base,
		Pages:    pages,
		Frames:   frames,
		LineSize: sys.K.M.Plat.Hierarchy.L1D.LineSize,
	}, nil
}

// AllLines returns the virtual address of every cache line in the buffer.
func (b *ProbeBuffer) AllLines() []uint64 {
	out := make([]uint64, 0, b.Pages*memory.PageSize/b.LineSize)
	for off := uint64(0); off < uint64(b.Pages)*memory.PageSize; off += uint64(b.LineSize) {
		out = append(out, b.Base+off)
	}
	return out
}

// PAddrOf returns the physical address backing a buffer offset.
func (b *ProbeBuffer) PAddrOf(off uint64) uint64 {
	return b.Frames[off/memory.PageSize].Addr() + off%memory.PageSize
}

// LinesForSets returns the virtual addresses of buffer lines whose
// *physical* address maps into targetSets of cache c — the attacker's
// eviction set for those sets. If padTo > 0 and fewer congruent lines
// exist (e.g. the defender's colouring makes the sets unreachable), the
// result is padded with other buffer lines so the probe's size — and
// thus its baseline cost — stays constant.
func (b *ProbeBuffer) LinesForSets(c *cache.Cache, targetSets map[int]bool, padTo int) []uint64 {
	var out []uint64
	var rest []uint64
	for off := uint64(0); off < uint64(b.Pages)*memory.PageSize; off += uint64(b.LineSize) {
		v := b.Base + off
		if targetSets[c.SetOf(b.PAddrOf(off))] {
			out = append(out, v)
		} else {
			rest = append(rest, v)
		}
	}
	for padTo > 0 && len(out) < padTo && len(rest) > 0 {
		out = append(out, rest[0])
		rest = rest[1:]
	}
	if padTo > 0 && len(out) > padTo {
		out = out[:padTo]
	}
	return out
}

// DeStride reorders probe lines so that no two consecutive accesses are
// adjacent cache lines: even line indices first, then odd. Hardware
// stream prefetchers key on ±1-line sequences; a sequential probe would
// train them and they would refill evicted lines ahead of the probe,
// hiding the victim's footprint (the reason real toolkits probe in
// pointer-chased, non-sequential order).
func DeStride(lines []uint64, lineSize int) []uint64 {
	var even, odd []uint64
	for _, v := range lines {
		if (v/uint64(lineSize))%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return append(even, odd...)
}

// Probe loads every line and returns the elapsed cycles — the attack
// measurement primitive. Timing goes through Env.Now (the attacker's
// clock), so clock countermeasures (fuzzy time) degrade it faithfully.
func Probe(e *kernel.Env, lines []uint64) int {
	t0 := e.Now()
	if batching.Load() {
		e.LoadBatch(lines, nil)
	} else {
		for _, v := range lines {
			e.Load(v)
		}
	}
	return int(e.Now() - t0)
}

// ProbeMisses loads every line and counts those whose clock-measured
// latency exceeds the threshold (Mastik-style miss counting; Figure 3's
// y-axis).
//
// The batch path reconstructs the scalar loop's per-line clock reads
// from the batch costs: within one Step nothing but the accesses
// themselves advance the core's cycle counter, so the t0/t1 pair each
// iteration would have read — including the fuzzy-clock quantisation
// the attacker is subject to — is start-plus-prefix-sum, quantised.
func ProbeMisses(e *kernel.Env, lines []uint64, threshold int) int {
	if !batching.Load() {
		misses := 0
		for _, v := range lines {
			t0 := e.Now()
			e.Load(v)
			if int(e.Now()-t0) > threshold {
				misses++
			}
		}
		return misses
	}
	costs := e.CostScratch(len(lines))
	now := e.PreciseNow()
	e.LoadBatch(lines, costs)
	misses := 0
	if g := e.Kernel().Cfg.FuzzyClockGrain; g > 0 {
		for _, c := range costs {
			t0 := now / g * g
			now += uint64(c)
			if int(now/g*g-t0) > threshold {
				misses++
			}
		}
	} else {
		for _, c := range costs {
			if c > threshold {
				misses++
			}
		}
	}
	return misses
}

// ProbeExec fetches every line as instructions (L1-I probing).
func ProbeExec(e *kernel.Env, lines []uint64) int {
	t0 := e.Now()
	if batching.Load() {
		e.ExecBatch(lines, nil)
	} else {
		for _, v := range lines {
			e.Exec(v)
		}
	}
	return int(e.Now() - t0)
}

// StoreLines dirties every line — the flush channel's sender primitive
// (the write-back count is the signal).
func StoreLines(e *kernel.Env, lines []uint64) {
	if batching.Load() {
		e.StoreBatch(lines, nil)
		return
	}
	for _, v := range lines {
		e.Store(v)
	}
}

// reversed returns lines in reverse order (the anti-LRU probe
// discipline: probing in reverse of priming order defeats the LRU
// cascade, as every real prime&probe toolkit does).
func reversed(lines []uint64) []uint64 {
	out := make([]uint64, len(lines))
	for i, v := range lines {
		out[len(lines)-1-i] = v
	}
	return out
}

// KernelTextSets returns the LLC (or shared-L2) sets occupied by the
// given byte ranges of an image's kernel text — the attack sets of the
// Figure 3 kernel channel. Ranges are (offset, length) pairs.
func KernelTextSets(sys *core.System, img *kernel.Image, ranges [][2]uint64) map[int]bool {
	llc := sys.K.M.Hier.LLC()
	lineSize := uint64(sys.K.M.Plat.Hierarchy.L1D.LineSize)
	sets := map[int]bool{}
	for _, r := range ranges {
		for off := r[0]; off < r[0]+r[1]; off += lineSize {
			sets[llc.SetOf(img.TextPAddr(off))] = true
		}
	}
	return sets
}
