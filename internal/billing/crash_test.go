package billing

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spotdc/internal/operator"
	"spotdc/internal/sim"
	"spotdc/internal/wal"
)

// crashLedgerRun drives the networked crash harness with a billing ledger
// threaded through the durable hooks: every cleared slot folds into the
// ledger right before the WAL commit captures its full serialized state,
// and each recovery rebuilds the ledger purely from the WAL — the
// in-memory ledger of a killed lifetime is deliberately discarded.
func crashLedgerRun(t *testing.T, kills []sim.CrashKill) *Ledger {
	t.Helper()
	sc, err := sim.Testbed(sim.TestbedOptions{Seed: 17, Slots: 100})
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.NetRunOptions{SlotLen: 15 * time.Millisecond, Audit: true}
	slotHours := opts.SlotLen.Hours()
	topo := sc.Topo

	newLedger := func() *Ledger {
		l, err := NewLedger(sc.Pricing)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range topo.Racks {
			if err := l.Register(r.Tenant, r.Guaranteed); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	led := newLedger()

	restore := func(data []byte) error {
		var st LedgerState
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		restored, err := RestoreLedger(st)
		if err != nil {
			return err
		}
		led = restored
		return nil
	}
	_, err = sim.CrashNetRun(sc, opts, sim.CrashRunOptions{
		StateDir:     filepath.Join(t.TempDir(), "state"),
		Policy:       wal.SyncEverySlot,
		SegmentBytes: 1 << 14,
		Kills:        kills,
		OnCommit: func(slot int, out operator.SlotOutcome) {
			// Rack draws are the harness's deterministic 75%-of-guarantee
			// reference; grants come from the slot's allocations. Racks fold
			// in index order so the compensated sums accumulate identically
			// every run.
			for i, r := range topo.Racks {
				grant := 0.0
				for _, a := range out.Result.Allocations {
					if a.Rack == i {
						grant += a.Watts
					}
				}
				if err := led.RecordSlot(r.Tenant, 0.75*r.Guaranteed, grant, out.Result.Price, slotHours); err != nil {
					t.Errorf("slot %d: %v", slot, err)
				}
			}
		},
		SaveState: func() ([]byte, error) { return json.Marshal(led.State()) },
		// A recovered lifetime starts from a ledger that never saw the
		// earlier slots: registrations only, then WAL state on top.
		RestoreState: func(data []byte) error { led = newLedger(); return restore(data) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// TestCrashBillingInvoicesBitIdentical proves the billing half of the
// durability claim: a run killed twice mid-horizon (once leaving a torn
// WAL record) re-derives its ledger from the WAL alone and still issues
// invoices bit-identical to an uninterrupted run — compensated spot-paid
// sums included.
func TestCrashBillingInvoicesBitIdentical(t *testing.T) {
	golden := crashLedgerRun(t, nil)
	crashed := crashLedgerRun(t, []sim.CrashKill{
		{AfterSlot: 23},
		{AfterSlot: 57, TearTail: true},
	})

	gi, ci := golden.Invoices(), crashed.Invoices()
	if !reflect.DeepEqual(gi, ci) {
		t.Errorf("invoices diverge:\nuninterrupted %+v\ncrashed       %+v", gi, ci)
	}
	if g, c := golden.SpotPaidTotal(), crashed.SpotPaidTotal(); g != c {
		t.Errorf("spot paid total %v (uninterrupted) != %v (crashed)", g, c)
	}
	if golden.SpotPaidTotal() == 0 {
		t.Error("no spot charges accrued — the comparison above is vacuous")
	}
}
