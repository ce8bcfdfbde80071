// Package mi implements the paper's channel-measurement methodology
// (§5.1): mutual information between discrete inputs (the sender's
// secrets) and continuous outputs (the receiver's time measurements),
// estimated with Gaussian kernel density estimation and the rectangle
// method, plus the Chothia-Guha shuffle test that distinguishes sampling
// noise from a significant leak.
package mi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Resolution is the measurement floor of the toolchain in bits: the
// paper's apparatus resolves about one millibit; estimates below this
// are reported but cannot evidence a leak.
const Resolution = 0.001

// Dataset holds (input symbol, output measurement) sample pairs.
type Dataset struct {
	inputs  []int
	outputs []float64

	// Grouping memo, built lazily on first use and invalidated by Add.
	// Estimate, Matrix and ShuffleBound all need the outputs grouped by
	// input symbol; recomputing that grouping per call dominated the
	// shuffle test's 100 rounds.
	memoBuilt  bool
	memoN      int
	memoInputs []int       // distinct input symbols, ascending
	memoSlot   map[int]int // input symbol -> index into memoInputs
	memoIdx    [][]int     // sample indices per distinct input
	memoGroups [][]float64 // outputs per distinct input, sample order

	// Backing arrays the memo's per-class slices are carved from, reused
	// across rebuilds.
	memoIdxBack    []int
	memoGroupsBack []float64
}

// Add records one observation.
func (d *Dataset) Add(input int, output float64) {
	d.inputs = append(d.inputs, input)
	d.outputs = append(d.outputs, output)
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.inputs) }

// Sample is one (input symbol, output measurement) observation in
// collection order — the unit incremental consumers (the session API's
// step results) read back out of a growing dataset.
type Sample struct {
	Input  int
	Output float64
}

// At returns the i-th sample in collection order.
func (d *Dataset) At(i int) Sample {
	return Sample{Input: d.inputs[i], Output: d.outputs[i]}
}

// Since returns the samples collected at or after index from, in
// collection order (a copy; empty when from >= N).
func (d *Dataset) Since(from int) []Sample {
	if from < 0 {
		from = 0
	}
	if from >= len(d.inputs) {
		return nil
	}
	out := make([]Sample, len(d.inputs)-from)
	for i := range out {
		out[i] = Sample{Input: d.inputs[from+i], Output: d.outputs[from+i]}
	}
	return out
}

// refreshGroups (re)builds the grouping memo if samples were added (or
// the dataset was constructed directly) since it was last built.
func (d *Dataset) refreshGroups() {
	if d.memoBuilt && d.memoN == len(d.inputs) {
		return
	}
	if d.memoSlot == nil {
		d.memoSlot = make(map[int]int)
	} else {
		clear(d.memoSlot)
	}
	d.memoInputs = d.memoInputs[:0]
	for _, in := range d.inputs {
		if _, ok := d.memoSlot[in]; !ok {
			d.memoSlot[in] = 0
			d.memoInputs = append(d.memoInputs, in)
		}
	}
	sort.Ints(d.memoInputs)
	for i, in := range d.memoInputs {
		d.memoSlot[in] = i
	}
	k := len(d.memoInputs)
	// Count each class's samples, then carve the per-class slices out of
	// two reusable backing arrays; growing every class with bare append
	// reallocated the whole memo on each rebuild.
	counts := make([]int, k)
	for _, in := range d.inputs {
		counts[d.memoSlot[in]]++
	}
	n := len(d.inputs)
	if cap(d.memoIdx) < k {
		d.memoIdx = make([][]int, k)
	}
	if cap(d.memoGroups) < k {
		d.memoGroups = make([][]float64, k)
	}
	d.memoIdx = d.memoIdx[:k]
	d.memoGroups = d.memoGroups[:k]
	if cap(d.memoIdxBack) < n {
		d.memoIdxBack = make([]int, n)
	}
	if cap(d.memoGroupsBack) < n {
		d.memoGroupsBack = make([]float64, n)
	}
	ib, gb := d.memoIdxBack[:n], d.memoGroupsBack[:n]
	off := 0
	for s := 0; s < k; s++ {
		d.memoIdx[s] = ib[off : off : off+counts[s]]
		d.memoGroups[s] = gb[off : off : off+counts[s]]
		off += counts[s]
	}
	for i, in := range d.inputs {
		s := d.memoSlot[in]
		d.memoIdx[s] = append(d.memoIdx[s], i)
		d.memoGroups[s] = append(d.memoGroups[s], d.outputs[i])
	}
	d.memoBuilt = true
	d.memoN = len(d.inputs)
}

// Inputs returns the distinct input symbols in ascending order.
func (d *Dataset) Inputs() []int {
	d.refreshGroups()
	return append([]int(nil), d.memoInputs...)
}

// OutputsFor returns the outputs observed for one input (copy).
func (d *Dataset) OutputsFor(input int) []float64 {
	d.refreshGroups()
	s, ok := d.memoSlot[input]
	if !ok {
		return nil
	}
	return append([]float64(nil), d.memoGroups[s]...)
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return
}

// silverman computes the KDE bandwidth h = 1.06 sigma n^(-1/5)
// [Silverman 1986], with a floor to keep degenerate (constant-output)
// classes integrable.
func silverman(xs []float64, floor float64) float64 {
	_, std := meanStd(xs)
	h := 1.06 * std * math.Pow(float64(len(xs)), -0.2)
	if h < floor {
		h = floor
	}
	return h
}

// gridPoints is the resolution of the rectangle-method integration.
const gridPoints = 512

// Estimate computes the mutual information M (in bits) between a
// uniform distribution over the dataset's input symbols and the
// observed continuous outputs, as in the paper: per-input output
// densities are estimated by Gaussian KDE and the integral is taken by
// the rectangle method. The densities are evaluated by linear-binned
// KDE (see kde.go), which agrees with the direct per-sample sum to well
// below the toolchain's millibit resolution.
func Estimate(d *Dataset) float64 {
	d.refreshGroups()
	if len(d.memoGroups) < 2 || len(d.inputs) == 0 {
		return 0
	}
	e := estimators.Get().(*estimator)
	m := e.estimate(d.memoGroups, d.outputs)
	estimators.Put(e)
	return m
}

// splitmixSource is a tiny reseedable rand.Source64 (splitmix64). Each
// shuffle round reseeds one per-worker instance instead of allocating a
// fresh 5 KB lagged-Fibonacci source.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// roundSeed derives the RNG seed for one shuffle round from the base
// seed drawn from the caller's RNG (splitmix64 finalizer), so every
// round has an independent, deterministic stream no matter which worker
// runs it.
func roundSeed(base int64, round int) int64 {
	z := uint64(base) + uint64(round+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// ShuffleBound implements the zero-leakage significance test: outputs
// are randomly reassigned to inputs `rounds` times (destroying any
// input/output relation while preserving the marginal distributions),
// MI is estimated for each shuffled dataset, and the one-sided 95%
// confidence bound M0 = mean + 1.645 sigma is returned. An estimate
// M > M0 on the original data evidences a leak.
//
// The rounds run concurrently across GOMAXPROCS goroutines. Exactly one
// value is drawn from rng to seed the per-round shuffle streams, so the
// result depends only on the dataset and the rng state at the call —
// not on GOMAXPROCS or scheduling.
func ShuffleBound(d *Dataset, rounds int, rng *rand.Rand) float64 {
	if rounds <= 0 {
		rounds = 100
	}
	d.refreshGroups()
	base := rng.Int63()
	n := len(d.outputs)
	ms := make([]float64, rounds)
	workers := runtime.GOMAXPROCS(0)
	if workers > rounds {
		workers = rounds
	}
	if workers < 1 {
		workers = 1
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := estimators.Get().(*estimator)
			defer estimators.Put(e)
			perm := make([]float64, n)
			// Per-worker class buffers: the grouping (which sample index
			// belongs to which input) is fixed under shuffling; only the
			// values move.
			backing := make([]float64, n)
			groups := make([][]float64, len(d.memoIdx))
			off := 0
			for c, idx := range d.memoIdx {
				groups[c] = backing[off : off+len(idx)]
				off += len(idx)
			}
			src := &splitmixSource{}
			rr := rand.New(src)
			for {
				r := int(atomic.AddInt64(&next, 1)) - 1
				if r >= rounds {
					return
				}
				src.Seed(roundSeed(base, r))
				copy(perm, d.outputs)
				rr.Shuffle(n, func(i, j int) {
					perm[i], perm[j] = perm[j], perm[i]
				})
				for c, idx := range d.memoIdx {
					for i, s := range idx {
						groups[c][i] = perm[s]
					}
				}
				if len(groups) < 2 || n == 0 {
					ms[r] = 0
					continue
				}
				ms[r] = e.estimate(groups, perm)
			}
		}()
	}
	wg.Wait()
	mean, std := meanStd(ms)
	return mean + 1.645*std
}

// Result is a complete channel measurement.
type Result struct {
	M  float64 // estimated mutual information, bits per observation
	M0 float64 // zero-leakage 95% bound
	N  int     // sample count
}

// Leak reports whether the measurement evidences an information leak:
// M strictly exceeds M0 (the strict inequality matters for perfectly
// uniform data, §5.1) and is above the tool's resolution.
func (r Result) Leak() bool { return r.M > r.M0 && r.M >= Resolution }

// Millibits formats a bit value in the paper's mb unit.
func Millibits(bits float64) float64 { return bits * 1000 }

func (r Result) String() string {
	return fmt.Sprintf("M=%.1fmb M0=%.1fmb n=%d leak=%v",
		Millibits(r.M), Millibits(r.M0), r.N, r.Leak())
}

// Analyze estimates M and M0 for a dataset with the default 100 shuffle
// rounds.
func Analyze(d *Dataset, rng *rand.Rand) Result {
	return Result{M: Estimate(d), M0: ShuffleBound(d, 100, rng), N: d.N()}
}

// ErrEmptyDataset is returned by loaders for datasets with no samples.
var ErrEmptyDataset = errors.New("mi: empty dataset")
