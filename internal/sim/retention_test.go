package sim

import (
	"path/filepath"
	"testing"
	"time"

	"spotdc/internal/wal"
)

// TestCrashStateDirHoldsTwoSegments: across killed and recovered lifetimes
// (one leaving a torn record) the state dir never grows past the sealed
// segment and the active one, and holds no snapshot file.
func TestCrashStateDirHoldsTwoSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	res, err := CrashNetRun(
		testbedScenario(t, TestbedOptions{Seed: 5, Slots: 60}),
		NetRunOptions{SlotLen: 15 * time.Millisecond},
		CrashRunOptions{
			StateDir:     dir,
			Policy:       wal.SyncEverySlot,
			SegmentBytes: 1 << 12,
			Kills:        []CrashKill{{AfterSlot: 20, TearTail: true}, {AfterSlot: 40}},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 3 || res.Truncations != 1 || res.Cleared != 60 {
		t.Fatalf("result %+v, want 3 lifetimes, 1 torn tail, 60 cleared slots", res)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 || len(segs) == 0 || len(snaps) != 0 {
		t.Fatalf("state dir holds segments %v and snapshots %v, want 1-2 segments and no snapshot", segs, snaps)
	}
}
