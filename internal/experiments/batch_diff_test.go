package experiments

import (
	"crypto/sha256"
	"strings"
	"testing"

	"timeprotection/internal/channel"
	"timeprotection/internal/hw"
	"timeprotection/internal/snapshot"
)

func restoreBatching(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { channel.SetBatching(true) })
}

// TestArtefactBatchingEquivalence is the differential gate for the
// batched stepping path: every registry artefact must render
// byte-identically whether the probe primitives step scalar (one Env
// call per access) or batched (one LoadBatch/ExecBatch walk per probe).
// Any divergence in per-access state transitions, cost accounting or
// fuzzy-clock reconstruction would change these bytes. Snapshots are
// reset between passes so each pass captures its own machines.
func TestArtefactBatchingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole registry twice")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	restoreSnapshots(t)
	restoreBatching(t)
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

	channel.SetBatching(false)
	snapshot.Reset()
	scalar := renderAll("scalar")

	channel.SetBatching(true)
	snapshot.Reset()
	batched := renderAll("batched")

	if len(scalar) == 0 {
		t.Fatal("no artefacts rendered")
	}
	for name, want := range scalar {
		if batched[name] != want {
			t.Errorf("%s: batched output differs from scalar stepping", name)
		}
	}
}

// TestPlanBatchingDigestAcrossWorkers crosses batching with the
// parallel plan runner: a scalar single-worker plan, a batched
// single-worker plan and a batched eight-worker plan must all hash
// identically.
func TestPlanBatchingDigestAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole artefact plan three times")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	restoreSnapshots(t)
	restoreBatching(t)
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
	channel.SetBatching(false)
	snapshot.Reset()
	scalar := digest(1)
	channel.SetBatching(true)
	snapshot.Reset()
	if got := digest(1); got != scalar {
		t.Fatal("batched plan output differs from scalar at 1 worker")
	}
	snapshot.Reset()
	if got := digest(8); got != scalar {
		t.Fatal("batched plan output differs from scalar at 8 workers")
	}
}
