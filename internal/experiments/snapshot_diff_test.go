package experiments

import (
	"crypto/sha256"
	"strings"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/snapshot"
)

// snapshotTestConfig is compact so the full registry passes stay
// affordable; equivalence must hold for any config.
func snapshotTestConfig() Config {
	return Config{Platform: hw.Haswell(), Samples: 25, SplashBlocks: 250, Seed: 42, Table8Slices: 3}
}

func restoreSnapshots(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		snapshot.SetEnabled(true)
		snapshot.Reset()
	})
}

// TestArtefactSnapshotEquivalence is the differential gate for the
// snapshot layer: every registry artefact must render byte-identically
// whether its machines are cold-booted or forked from snapshots. Any
// bit of simulated state the codec missed would diverge timings and
// change these bytes.
func TestArtefactSnapshotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole registry twice")
	}
	if raceEnabled {
		// Byte-equality is a determinism check, not a race check; the
		// snapshot layer's concurrency is race-tested in
		// internal/snapshot and by the plan-digest test's 8-worker run.
		t.Skip("too slow under the race detector")
	}
	restoreSnapshots(t)
	cfg := snapshotTestConfig()
	renderAll := func(mode string) map[string]string {
		out := map[string]string{}
		for _, a := range Registry() {
			if !a.SupportsPlatform(cfg.Platform) {
				continue
			}
			s, err := a.Output(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", a.Name, mode, err)
			}
			out[a.Name] = s
		}
		return out
	}

	snapshot.SetEnabled(false)
	snapshot.Reset()
	cold := renderAll("cold")

	snapshot.SetEnabled(true)
	snapshot.Reset()
	forked := renderAll("forked")

	for name, want := range cold {
		if forked[name] != want {
			t.Errorf("%s: forked output differs from cold boot", name)
		}
	}
}

// TestPlanSnapshotDigestAcrossWorkers crosses the two determinism axes:
// the full plan's bytes must not depend on snapshot forking or on the
// worker count — a cold single-worker run, a forked single-worker run
// and a forked eight-worker run all hash identically.
func TestPlanSnapshotDigestAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole artefact plan three times")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	restoreSnapshots(t)
	spec := PlanSpec{
		Platforms: []hw.Platform{hw.Haswell()},
		Base:      snapshotTestConfig(),
		All:       true,
	}
	digest := func(parallel int) [32]byte {
		var sb strings.Builder
		if err := RunJobs(Plan(spec), parallel, &sb); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return sha256.Sum256([]byte(sb.String()))
	}
	snapshot.SetEnabled(false)
	snapshot.Reset()
	cold := digest(1)
	snapshot.SetEnabled(true)
	snapshot.Reset()
	if got := digest(1); got != cold {
		t.Fatal("snapshot plan output differs from cold boot at 1 worker")
	}
	if got := digest(8); got != cold {
		t.Fatal("snapshot plan output differs from cold boot at 8 workers")
	}
}
