// Crash-injection harness: the networked scenario runner with an operator
// that dies and recovers mid-horizon. A CrashNetRun is the same seeded
// market as NetRun — real TCP tenants, real MarketLoop — but segmented
// into operator lifetimes: at each configured kill point the market loop
// stops at a slot boundary, the WAL's file descriptors are yanked
// (wal.Log.Kill — no flush, no close), the server goes away, and a fresh
// "process" (new operator, new server, new rack-PDU emulations, new tenant
// sessions) recovers from the state directory and resumes. The harness
// exists to prove the durability claim end to end: a killed-and-recovered
// run must produce invoices, responder state, and a journal bit-identical
// to an uninterrupted run of the same seed. Each lifetime is one
// runLifetime call building one node.Node, the same assembly NetRun and
// cmd/spotdc-operator use.
//
// Determinism discipline: crash runs take no protocol faults (injectors
// are seed-positional and cannot resume mid-schedule), the loop's
// BeforeBids barrier waits for every expected bid to arrive before the
// drain — bounded by a fixed timeout that fails the run, never by the slot
// clock, so a slow host cannot slip a bid to the no-spot default in one
// run but not the other — and Server.TakeBids hands bids over in
// canonical rack order. Everything else — readings, traces, overloads —
// is already a pure function of the slot index.
package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spotdc/internal/operator"
	"spotdc/internal/proto"
	"spotdc/internal/tenant"
	"spotdc/internal/wal"
)

// CrashKill is one injected operator death.
type CrashKill struct {
	// AfterSlot kills the operator once this slot has committed and
	// broadcast (the loop stops cleanly at the boundary, then the WAL's
	// descriptors are yanked without flush or close).
	AfterSlot int
	// TearTail additionally appends a partial frame to the newest WAL
	// segment after the kill — the torn write of a slot record the dying
	// process never finished. Recovery must truncate it and resume at the
	// same slot as a clean kill.
	TearTail bool
}

// CrashRunOptions configures the kill schedule and the durable plumbing.
type CrashRunOptions struct {
	// StateDir is the WAL directory shared by every operator lifetime
	// (required).
	StateDir string
	// JournalPath, if non-empty, writes the slot journal to this file:
	// created on the first lifetime, reopened in append mode (header
	// already on disk) by every recovery — exactly what spotdc-operator
	// -events does across restarts.
	JournalPath string
	// JournalSyncEvery fsyncs the journal every N events (0: no fsync).
	JournalSyncEvery int
	// Policy is the WAL fsync discipline (zero value: every record).
	Policy wal.SyncPolicy
	// SegmentBytes / SnapshotEvery tune WAL rotation and snapshot cadence
	// (zeros take the wal/proto defaults).
	SegmentBytes  int64
	SnapshotEvery int
	// Kills is the schedule of operator deaths, strictly increasing by
	// AfterSlot; each must leave at least one slot to run afterwards.
	Kills []CrashKill

	// The four caller-state hooks thread higher-layer durable state (e.g. a
	// billing ledger) through the WAL without this package importing it.
	// OnCommit folds a cleared slot into the caller's state right before
	// the commit captures it; ExtraSlot/ExtraSnapshot serialize that state
	// into slot records and snapshots; RestoreSnapshot/ReplaySlot rebuild
	// it during recovery (snapshot first, then each replayed slot in
	// order). All optional.
	OnCommit        func(slot int, out operator.SlotOutcome)
	ExtraSlot       func(slot int) ([]byte, error)
	ExtraSnapshot   func() ([]byte, error)
	RestoreSnapshot func(data []byte) error
	ReplaySlot      func(data []byte) error
	// OnRestart observes each recovery (restart = 1 for the first
	// post-kill lifetime) after the restore hooks have run.
	OnRestart func(restart int, rec *proto.Recovered)
}

// CrashResult summarizes a segmented run.
type CrashResult struct {
	// Segments counts operator lifetimes (kills + 1).
	Segments int
	// Truncations / Replayed total the WAL repairs and slot records
	// replayed across every recovery.
	Truncations int
	Replayed    int
	// Cleared / SlotErrors / InfeasibleSlots sum the live (non-replayed)
	// slot counters over all lifetimes.
	Cleared         int
	SlotErrors      int
	InfeasibleSlots int
	// SpotRevenue and Checkpoint are the final operator's books — the
	// bit-identity handle the crash tests compare against an
	// uninterrupted run.
	SpotRevenue float64
	Checkpoint  operator.Checkpoint
}

func (c *CrashRunOptions) validate(sc Scenario, opts NetRunOptions) error {
	if c.StateDir == "" {
		return fmt.Errorf("sim: crash run needs a StateDir")
	}
	if opts.Journal != nil {
		return fmt.Errorf("sim: crash runs own their journal; use CrashRunOptions.JournalPath")
	}
	if opts.Registry != nil {
		return fmt.Errorf("sim: crash runs do not support a metrics registry (families would re-register per lifetime)")
	}
	if !faultFree(opts) {
		return fmt.Errorf("sim: crash runs take no protocol faults (injector schedules are seed-positional and cannot resume)")
	}
	prev := -1
	for _, k := range c.Kills {
		if k.AfterSlot <= prev {
			return fmt.Errorf("sim: kill slots must be strictly increasing (%d after %d)", k.AfterSlot, prev)
		}
		if k.AfterSlot >= sc.Slots-1 {
			return fmt.Errorf("sim: kill after slot %d leaves nothing to recover (horizon %d)", k.AfterSlot, sc.Slots)
		}
		prev = k.AfterSlot
	}
	return nil
}

// expectedBids precomputes how many rack-level bids land per slot. Agents'
// PlanBids is a pure function of the slot (trace-driven), so walking the
// horizon up front tells the BeforeBids barrier exactly how many arrivals
// to wait for.
func expectedBids(sc Scenario) []int {
	expect := make([]int, sc.Slots)
	for slot := range expect {
		for _, a := range sc.Agents {
			// The empty hint mirrors runNetTenant's live call exactly.
			expect[slot] += len(netBids(sc.Topo, a.PlanBids(slot, tenant.MarketHint{})))
		}
	}
	return expect
}

// tearWALTail appends a partial frame to the newest WAL segment: a valid
// header claiming a 64-byte payload followed by only 8 bytes of it — the
// on-disk signature of a process dying mid-write. The bytes are built by
// hand on purpose: the harness simulates a torn write, it does not go
// through the log's API.
func tearWALTail(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	newest := ""
	for _, e := range entries {
		name := e.Name()
		// Fixed-width hex sequence names sort lexicographically.
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		return fmt.Errorf("sim: no WAL segment to tear in %s", dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	torn := append([]byte{0xD7, 0x01, 0x01, 0x00, 0x00, 0x40}, make([]byte, 8)...)
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CrashNetRun executes the scenario as a sequence of operator lifetimes
// separated by the configured kills, each recovered from the StateDir by
// the same lifetime runner NetRun uses. See the package comment in this
// file for the determinism contract.
func CrashNetRun(sc Scenario, opts NetRunOptions, crash CrashRunOptions) (*CrashResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	if err := crash.validate(sc, opts); err != nil {
		return nil, err
	}
	res := &CrashResult{}
	from := 0
	for seg := 0; seg <= len(crash.Kills); seg++ {
		lt := lifetime{from: from, to: sc.Slots, crash: &crash, restart: seg}
		if seg < len(crash.Kills) {
			lt.kill = &crash.Kills[seg]
			lt.to = lt.kill.AfterSlot + 1
		}
		lres, n, err := runLifetime(sc, opts, lt)
		if err == nil && lt.kill != nil && lt.kill.TearTail {
			err = tearWALTail(crash.StateDir)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: crash segment %d (slots %d..%d): %w", seg, from, lt.to-1, err)
		}
		res.Segments++
		res.Truncations += n.Recovered.Truncations
		res.Replayed += n.Recovered.SlotsReplayed
		res.Cleared += lres.Cleared
		res.SlotErrors += lres.SlotErrors
		res.InfeasibleSlots += lres.InfeasibleSlots
		// The last lifetime's books are the run's.
		res.SpotRevenue = lres.SpotRevenue
		res.Checkpoint = n.Operator.Checkpoint()
		from = lt.to
	}
	return res, nil
}
