// Package snapshot lets experiments boot a machine once and fork it
// everywhere. A fully booted system — cache/TLB/predictor arrays,
// prefetcher hidden state, kernel images and clone genealogy, address
// spaces, allocator free lists, DRAM timing state — is frozen into an
// immutable byte snapshot keyed by its configuration; every subsequent
// request for the same configuration decodes a fresh, fully independent
// copy instead of re-running boot and kernel cloning. Snapshots are
// process-local: a boot costs a few milliseconds once per configuration
// per process, while persisted snapshot bytes would dwarf every result
// the durable store exists to keep.
//
// Correctness model: the codec (EncodeState/DecodeState across the
// cache, hw, memory, kernel and core layers) captures every bit of
// state that can influence simulation, and the encoding is canonical —
// so `Encode(cold boot) == Encode(fork)` is a machine-checkable
// equivalence, asserted by the differential tests. Byte-identical
// artefact output between snapshot and cold-boot runs follows.
//
// Boot-time observability is handled by counter replay: the capture
// boot runs against a private counters-only sink, and the recorded
// deltas are added to the forking caller's sink, so a fork's counters
// match a cold boot's exactly. Callers whose sink retains events
// (EventsEnabled) fall back to a cold boot transparently — replaying
// events faithfully would tie snapshots to ring capacities and clock
// closures for no experimental gain (event-level runs are inspection
// tooling, not the measured hot path).
package snapshot

import (
	"sync"
	"sync/atomic"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/trace"
)

var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled toggles snapshot forking process-wide. Disabled, every
// NewSystem/BootKernel call boots cold — the configuration CI uses to
// diff snapshot output against ground truth.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether snapshot forking is active.
func Enabled() bool { return enabled.Load() }

// Counters exposes what the snapshot layer actually did, for tests and
// the -stats flag.
type Counters struct {
	Captures  uint64 // cold boots performed to populate a snapshot
	Forks     uint64 // systems decoded from a snapshot
	Fallbacks uint64 // cold boots because forking was impossible
	// DiskHits and MemoHits are always 0: snapshots are never
	// persisted and no run result is cached in-process. The fields stay
	// for readers that still report them.
	DiskHits uint64
	MemoHits uint64
}

var counters struct {
	captures, forks, fallbacks atomic.Uint64
}

// Stats returns a snapshot of the layer's counters.
func Stats() Counters {
	return Counters{
		Captures:  counters.captures.Load(),
		Forks:     counters.forks.Load(),
		Fallbacks: counters.fallbacks.Load(),
	}
}

// bootDeltas is the observability delta of a boot: every unit counter
// the boot traffic bumped, recorded against a private sink at capture
// time and added to the forking caller's sink.
type bootDeltas struct {
	units     [trace.NumUnits]trace.UnitStats
	padCount  uint64
	padCycles uint64
}

func deltasFrom(s *trace.Sink) bootDeltas {
	var d bootDeltas
	for u := 0; u < int(trace.NumUnits); u++ {
		d.units[u] = s.UnitSnapshot(trace.Unit(u))
	}
	d.padCount = s.PadCount
	d.padCycles = s.PadCycles
	return d
}

func (d *bootDeltas) applyTo(s *trace.Sink) {
	if s == nil {
		return
	}
	for u := 0; u < int(trace.NumUnits); u++ {
		dst := s.Unit(trace.Unit(u))
		src := &d.units[u]
		dst.Accesses += src.Accesses
		dst.Hits += src.Hits
		dst.Misses += src.Misses
		dst.Evictions += src.Evictions
		dst.Writebacks += src.Writebacks
		dst.Flushes += src.Flushes
		dst.FlushedLines += src.FlushedLines
		dst.Issues += src.Issues
		dst.Cycles += src.Cycles
		dst.WritebackCycles += src.WritebackCycles
	}
	s.PadCount += d.padCount
	s.PadCycles += d.padCycles
}

// entry is one populated (or in-flight) snapshot in the process-wide
// registry. Population runs under the entry's once, so concurrent
// requests for the same configuration boot exactly one machine.
type entry struct {
	once   sync.Once
	deltas *bootDeltas
	state  []byte
	err    error
}

var (
	regMu    sync.Mutex
	registry = map[string]*entry{}
)

func entryFor(key string) *entry {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[key]
	if !ok {
		e = &entry{}
		registry[key] = e
	}
	return e
}

// Reset drops every cached snapshot, so the next NewSystem or
// BootKernel for each configuration captures again. Tests and the
// benchmarks use it to exercise cold paths; it does not touch the
// counters.
func Reset() {
	regMu.Lock()
	registry = map[string]*entry{}
	regMu.Unlock()
}

// populate fills e under its once by a capture cold boot via capture(),
// which must return the encoded state and the boot's observability
// deltas.
func (e *entry) populate(capture func() (*bootDeltas, []byte, error)) {
	e.once.Do(func() {
		e.deltas, e.state, e.err = capture()
		if e.err == nil {
			counters.captures.Add(1)
		}
	})
}

// NewSystem is the drop-in snapshot-aware replacement for
// core.NewSystem: it forks a cached snapshot of the requested
// configuration, booting cold only to populate the cache (or when
// forking is impossible — snapshots disabled, or an event-retaining
// tracer attached). The returned system is always a fully independent
// object graph; concurrent callers can run their forks in parallel.
func NewSystem(opts core.Options) (*core.System, error) {
	if opts.Tracer.EventsEnabled() {
		counters.fallbacks.Add(1)
		return core.NewSystem(opts)
	}
	return forkSystem(opts)
}

// ForkForStreaming forks a snapshot even when opts.Tracer retains
// events. The fork's event rings start empty — boot-time events are not
// replayable, which is why NewSystem boots such configurations cold —
// while the boot's counter deltas are still applied, exactly as for a
// counters-only fork. The session layer uses it: a live session's
// consumers only ever observe events emitted after the fork, so trading
// the (unobservable) boot events for snapshot-speed session creation is
// sound there, and simulated behaviour is untouched either way — the
// decoded state is the same bytes the differential suite proves
// boot-equivalent.
func ForkForStreaming(opts core.Options) (*core.System, error) {
	return forkSystem(opts)
}

func forkSystem(opts core.Options) (*core.System, error) {
	if !Enabled() {
		counters.fallbacks.Add(1)
		return core.NewSystem(opts)
	}
	e := entryFor(SystemKey(opts))
	e.populate(func() (*bootDeltas, []byte, error) {
		bootOpts := opts
		bootOpts.Tracer = trace.NewSink(0)
		sys, err := core.NewSystem(bootOpts)
		if err != nil {
			return nil, nil, err
		}
		var w enc.Writer
		if err := sys.EncodeState(&w); err != nil {
			return nil, nil, err
		}
		d := deltasFrom(bootOpts.Tracer)
		return &d, w.Bytes(), nil
	})
	if e.err != nil {
		// The capture boot failed; surface the same error a cold boot
		// would produce.
		return nil, e.err
	}
	sys, err := core.DecodeSystem(opts, enc.NewReader(e.state))
	if err != nil {
		// A snapshot that no longer decodes (schema drift within a
		// process should be impossible, but stay safe): boot cold.
		counters.fallbacks.Add(1)
		return core.NewSystem(opts)
	}
	e.deltas.applyTo(opts.Tracer)
	counters.forks.Add(1)
	return sys, nil
}

// BootKernel is the snapshot-aware replacement for kernel.Boot for
// call sites that assemble machines below the core layer. The sink is
// attached to the returned kernel (cold or forked) when non-nil; an
// event-retaining sink forces a cold boot, as in NewSystem.
func BootKernel(plat hw.Platform, cfg kernel.Config, sink *trace.Sink) (*kernel.Kernel, error) {
	coldBoot := func() (*kernel.Kernel, error) {
		k, err := kernel.Boot(plat, cfg)
		if err == nil && sink != nil {
			k.AttachTracer(sink)
		}
		return k, err
	}
	if !Enabled() || sink.EventsEnabled() {
		counters.fallbacks.Add(1)
		return coldBoot()
	}
	e := entryFor(KernelKey(plat, cfg))
	e.populate(func() (*bootDeltas, []byte, error) {
		probe := trace.NewSink(0)
		k, err := kernel.Boot(plat, cfg)
		if err != nil {
			return nil, nil, err
		}
		k.AttachTracer(probe)
		var w enc.Writer
		if err := k.EncodeState(&w); err != nil {
			return nil, nil, err
		}
		d := deltasFrom(probe)
		return &d, w.Bytes(), nil
	})
	if e.err != nil {
		return nil, e.err
	}
	k, err := kernel.DecodeKernel(plat, enc.NewReader(e.state))
	if err != nil {
		counters.fallbacks.Add(1)
		return coldBoot()
	}
	if sink != nil {
		k.AttachTracer(sink)
		e.deltas.applyTo(sink)
	}
	counters.forks.Add(1)
	return k, nil
}
