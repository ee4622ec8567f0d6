package node

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spotdc/internal/audit"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/trace"
	"spotdc/internal/wal"
)

// restartConfig is a two-rack node on one PDU, durable in dir, with the
// emergency loop armed and a surge on slot 2 that overloads the PDU. The
// responder never restores (RecoverySlots is past the horizon), so the
// reclaimed rack budgets must survive every restart.
func restartConfig(t *testing.T, dir string) Config {
	t.Helper()
	topo, err := power.NewTopology(1000,
		[]power.PDU{{ID: "PDU#1", Capacity: 220}},
		[]power.Rack{
			{ID: "A-1", Tenant: "a", PDU: 0, Guaranteed: 100, SpotHeadroom: 50},
			{ID: "B-1", Tenant: "b", PDU: 0, Guaranteed: 100, SpotHeadroom: 50},
		})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Operator: operator.Config{
			Topology:  topo,
			Emergency: &operator.ResponderConfig{RecoverySlots: 1000},
		},
		Listen: "127.0.0.1:0",
		Surge: func(slot, rack int) float64 {
			if slot == 2 {
				return 50
			}
			return 0
		},
		SlotLen:     10 * time.Millisecond,
		WAL:         wal.Options{Dir: filepath.Join(dir, "state"), Policy: wal.SyncEverySlot},
		JournalPath: filepath.Join(dir, "events.jsonl"),
	}
}

func budgets(n *Node) []float64 {
	out := make([]float64, len(n.Units))
	for i, u := range n.Units {
		out[i] = u.Budget()
	}
	return out
}

// TestNodeRestartResumesJournalAndBudgets drives one state dir through a
// fresh start, a kill and a restart. A fresh state dir must start a fresh
// journal even when a previous run left an events file behind; the restart
// must append to it (no second header); the reclaimed rack PDU budgets
// must come back from the WAL; and the one journal both lifetimes wrote
// must pass the offline auditor with every slot present once.
func TestNodeRestartResumesJournalAndBudgets(t *testing.T) {
	dir := t.TempDir()
	cfg := restartConfig(t, dir)
	if err := os.WriteFile(cfg.JournalPath, []byte("{\"slot\":41}\n{\"slot\":42}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.NextSlot() != 0 {
		t.Fatalf("fresh state dir resumes at slot %d", first.NextSlot())
	}
	if cleared, err := first.Run(5); err != nil || cleared != 5 {
		t.Fatalf("first lifetime cleared %d: %v", cleared, err)
	}
	reclaimed := budgets(first)
	if reclaimed[0] >= 150 || reclaimed[1] >= 150 {
		t.Fatalf("budgets %v after the slot-2 overload, want both reclaimed below 150 W", reclaimed)
	}
	first.Kill()

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.NextSlot() != 5 {
		t.Fatalf("restart resumes at slot %d, want 5", second.NextSlot())
	}
	if got := budgets(second); !reflect.DeepEqual(got, reclaimed) {
		t.Fatalf("restarted rack PDU budgets %v, want the reclaimed %v", got, reclaimed)
	}
	if cleared, err := second.Run(3); err != nil || cleared != 3 {
		t.Fatalf("second lifetime cleared %d: %v", cleared, err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, events, torn, err := metrics.ReadJournalInfo(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || torn {
		t.Fatalf("journal header %v, torn %v: want a whole v2 journal", hdr, torn)
	}
	if len(events) != 8 {
		t.Fatalf("journal has %d events, want 8", len(events))
	}
	for i, ev := range events {
		if ev.Slot != i {
			t.Fatalf("journal event %d is slot %d", i, ev.Slot)
		}
	}
	if len(events[2].Reclaims) != 1 {
		t.Errorf("slot 2 reclaims = %+v, want one plan", events[2].Reclaims)
	}
	rep, err := audit.CheckJournal(hdr, events, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	if rep.Slots != 8 || rep.Cleared != 8 {
		t.Errorf("audit saw %d slots (%d cleared), want 8 (8)", rep.Slots, rep.Cleared)
	}
}

// TestNodeRestartWithoutJournalWritesHeader covers a restart whose events
// file is gone: the recovered node must start the file with a header
// instead of appending headerless slots.
func TestNodeRestartWithoutJournalWritesHeader(t *testing.T) {
	cfg := restartConfig(t, t.TempDir())
	for lifetime, slots := range []int{2, 1} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(slots); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if lifetime == 0 {
			if err := os.Remove(cfg.JournalPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := os.Open(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, events, err := metrics.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || len(events) != 1 || events[0].Slot != 2 {
		t.Fatalf("journal header %v, events %+v: want a header and slot 2", hdr, events)
	}
}

func TestNewValidates(t *testing.T) {
	cfg := restartConfig(t, t.TempDir())
	bad := []func(c *Config){
		func(c *Config) { c.Operator.Topology = nil },
		func(c *Config) { c.SlotLen = 0 },
		func(c *Config) { c.Journal = metrics.NewJournal(os.Stderr) },
		func(c *Config) { c.Durable = &proto.Durable{} },
		func(c *Config) { c.OtherLoad = make([]*trace.Power, 2) },
	}
	for i, mutate := range bad {
		c := cfg
		mutate(&c)
		if n, err := New(c); err == nil {
			n.Close()
			t.Errorf("config %d accepted", i)
		}
	}
}
