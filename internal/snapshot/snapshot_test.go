package snapshot_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"timeprotection/internal/core"
	"timeprotection/internal/enc"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// reset restores the snapshot layer's global state around a test.
func reset(t *testing.T) {
	t.Helper()
	snapshot.Reset()
	snapshot.SetEnabled(true)
	t.Cleanup(func() {
		snapshot.Reset()
		snapshot.SetEnabled(true)
	})
}

func encodeSystem(t *testing.T, s *core.System) []byte {
	t.Helper()
	var w enc.Writer
	if err := s.EncodeState(&w); err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	return w.Bytes()
}

func sinksEqual(a, b *trace.Sink) bool {
	for u := 0; u < int(trace.NumUnits); u++ {
		if a.UnitSnapshot(trace.Unit(u)) != b.UnitSnapshot(trace.Unit(u)) {
			return false
		}
	}
	return a.PadCount == b.PadCount && a.PadCycles == b.PadCycles
}

// TestForkMatchesColdBoot is the core differential gate: for every
// scenario and platform shape, the encoded state of a forked system is
// byte-identical to a cold boot's, and boot-counter replay makes a
// forking caller's sink indistinguishable from a cold-booting one's.
func TestForkMatchesColdBoot(t *testing.T) {
	cases := []core.Options{
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioRaw},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioFullFlush},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, Domains: 3, PadMicros: 20},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, StrictDomains: true, SharedColours: 1},
		{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, ColourFraction: 0.5},
		{Platform: hw.Sabre(), Scenario: kernel.ScenarioRaw},
		{Platform: hw.Sabre(), Scenario: kernel.ScenarioProtected, FuzzyClockGrainCycles: 1000},
	}
	for i, opts := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			reset(t)
			coldSink := trace.NewSink(0)
			coldOpts := opts
			coldOpts.Tracer = coldSink
			cold, err := core.NewSystem(coldOpts)
			if err != nil {
				t.Fatalf("cold boot: %v", err)
			}
			forkSink := trace.NewSink(0)
			forkOpts := opts
			forkOpts.Tracer = forkSink
			fork, err := snapshot.NewSystem(forkOpts)
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			if cold == fork {
				t.Fatal("fork returned the captured system, not a copy")
			}
			if !bytes.Equal(encodeSystem(t, cold), encodeSystem(t, fork)) {
				t.Fatal("forked state differs from cold boot")
			}
			if !sinksEqual(coldSink, forkSink) {
				t.Fatal("forked sink counters differ from cold boot")
			}
		})
	}
}

// TestForksAreIndependent: mutating one fork must not affect another.
func TestForksAreIndependent(t *testing.T) {
	reset(t)
	opts := core.Options{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected}
	a, err := snapshot.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := encodeSystem(t, b)
	// Run simulated work on fork a only.
	if _, err := a.MapBuffer(0, 0x1000_0000, 4); err != nil {
		t.Fatal(err)
	}
	a.RunCoreFor(0, a.Timeslice())
	if !bytes.Equal(ref, encodeSystem(t, b)) {
		t.Fatal("running fork a mutated fork b")
	}
	if bytes.Equal(ref, encodeSystem(t, a)) {
		t.Fatal("fork a did not change after running work (test is vacuous)")
	}
}

// TestKernelForkMatchesColdBoot covers the bare-kernel path.
func TestKernelForkMatchesColdBoot(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		t.Run(plat.Name, func(t *testing.T) {
			reset(t)
			cfg := kernel.Config{Scenario: kernel.ScenarioProtected, CloneSupport: true}
			coldSink := trace.NewSink(0)
			cold, err := kernel.Boot(plat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold.AttachTracer(coldSink)
			forkSink := trace.NewSink(0)
			fork, err := snapshot.BootKernel(plat, cfg, forkSink)
			if err != nil {
				t.Fatal(err)
			}
			var wc, wf enc.Writer
			if err := cold.EncodeState(&wc); err != nil {
				t.Fatal(err)
			}
			if err := fork.EncodeState(&wf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wc.Bytes(), wf.Bytes()) {
				t.Fatal("forked kernel state differs from cold boot")
			}
			if !sinksEqual(coldSink, forkSink) {
				t.Fatal("forked kernel sink differs from cold boot")
			}
		})
	}
}

// TestEventTracerFallsBack: an event-retaining sink cannot be served by
// replay, so the call must cold-boot (and still work).
func TestEventTracerFallsBack(t *testing.T) {
	reset(t)
	before := snapshot.Stats()
	sink := trace.NewSink(64)
	sys, err := snapshot.NewSystem(core.Options{Platform: hw.Haswell(), Tracer: sink})
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
	after := snapshot.Stats()
	if after.Fallbacks != before.Fallbacks+1 {
		t.Fatal("event tracer did not fall back to cold boot")
	}
	if after.Forks != before.Forks {
		t.Fatal("event tracer produced a fork")
	}
}

// TestDisabled: the kill switch must bypass forking.
func TestDisabled(t *testing.T) {
	reset(t)
	snapshot.SetEnabled(false)
	before := snapshot.Stats()
	if _, err := snapshot.NewSystem(core.Options{Platform: hw.Haswell()}); err != nil {
		t.Fatal(err)
	}
	if got := snapshot.Stats(); got.Forks != before.Forks || got.Captures != before.Captures {
		t.Fatal("disabled layer still captured or forked")
	}
}

// TestConcurrentForks: many goroutines requesting the same system must
// capture once and all receive independent, equal-state forks.
func TestConcurrentForks(t *testing.T) {
	reset(t)
	before := snapshot.Stats()
	opts := core.Options{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected}
	const n = 8
	systems := make([]*core.System, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := snapshot.NewSystem(opts)
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			systems[i] = s
			// Exercise the fork concurrently: forks must be fully
			// independent object graphs.
			s.RunCoreFor(0, s.Timeslice())
		}(i)
	}
	wg.Wait()
	if got := snapshot.Stats().Captures - before.Captures; got != 1 {
		t.Fatalf("captured %d times for one key, want 1", got)
	}
	ref := encodeSystem(t, systems[0])
	for i := 1; i < n; i++ {
		if !bytes.Equal(ref, encodeSystem(t, systems[i])) {
			t.Fatalf("fork %d diverged after identical work", i)
		}
	}
}
