// Package node assembles one market node — the operator side of a
// networked SpotDC deployment (Fig. 5) — from a single config: the
// operator (plus the emergency responder and one emulated rack PDU per rack
// when armed), the protocol server, the write-ahead log and the recovery
// from it, the slot journal, the slot clock, and the proto.MarketLoop that
// drives them. cmd/spotdc-operator and the simulator's networked harnesses
// (sim.NetRun, sim.CrashNetRun) all build their operator through New, so
// the node the tests kill and recover is the node operators run.
package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"spotdc/internal/core"
	"spotdc/internal/metrics"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/power"
	"spotdc/internal/powertrace"
	"spotdc/internal/proto"
	"spotdc/internal/rackpdu"
	"spotdc/internal/wal"
)

// referenceUtilization is the fraction of its guarantee every rack draws in
// the node's reference reading. The node has no rack telemetry feed; a
// production deployment would read the rack PDUs instead. Racks that bid
// are referenced at their full guarantee by the operator regardless
// (Section III-C).
const referenceUtilization = 0.75

// defaultBreakerTolerance is the testbed breakers' ride-through fraction.
const defaultBreakerTolerance = 0.05

// Config describes one market node.
type Config struct {
	// Operator configures the market operator. New wires its Metrics (from
	// Registry) and Tracer. A non-nil Operator.Emergency arms the emergency
	// loop: every rack gets an emulated rack PDU whose budget caps the
	// rack's reading, the responder's resets land there, and the market
	// loop checks every cleared reading for excursions. A SetBudget set by
	// the caller runs first, as an observer of each reset.
	Operator operator.Config
	// Listen is the market protocol address ("127.0.0.1:0" picks a port).
	Listen string
	// Server configures the protocol server. New sets OwnerOf (racks are
	// single-tenant: a hello claiming another tenant's rack is rejected),
	// Metrics and Tracer.
	Server proto.ServerOptions
	// BreakerTolerance is the excursion fraction breakers ride through
	// (default 0.05) and ResetDelay the rack PDUs' budget-reset latency;
	// both apply only when the emergency loop is armed.
	BreakerTolerance float64
	ResetDelay       time.Duration
	// OtherLoad is one background (non-participating) power trace per PDU;
	// nil reads zero background load.
	OtherLoad []*powertrace.Power
	// Surge, if non-nil, adds watts to a rack's offered load in a slot, on
	// top of the reference draw and before the rack PDU's cap.
	Surge func(slot, rack int) float64

	// SlotLen is the wall-clock slot length (required). Lead is how long
	// after New the first live slot starts (default two slot lengths); the
	// clock is anchored so a recovered node's slot numbering continues
	// where the previous lifetime stopped.
	SlotLen time.Duration
	Lead    time.Duration
	// MaxConsecutiveFailures and BreakerCooldownSlots configure the market
	// loop's circuit breaker (see proto.MarketLoop).
	MaxConsecutiveFailures int
	BreakerCooldownSlots   int

	// WAL, when WAL.Dir is set, makes the node durable: New opens the log,
	// recovers the operator's books and the server's market position from
	// it, restores the rack PDUs' budgets, and the loop commits every slot
	// before its broadcast (see proto.Durable).
	WAL wal.Options
	// The three state hooks thread caller-owned durable state (e.g. a
	// billing ledger) through the WAL, next to the node's own rack PDU
	// budgets. OnCommit folds a cleared slot into the caller's state right
	// before the commit; SaveState serializes that state into every slot
	// record; RestoreState rebuilds it from the recovered record. All
	// optional; used only with WAL.Dir.
	OnCommit     func(slot int, out operator.SlotOutcome)
	SaveState    func() ([]byte, error)
	RestoreState func(data []byte) error
	// Durable, instead of WAL.Dir, threads a caller-opened log into the
	// loop as is: no recovery, and the caller closes the log.
	Durable *proto.Durable

	// JournalPath, if set, writes the slot journal to this file. A fresh
	// node truncates it; a node that recovered a market position
	// (NextSlot > 0) appends to it, the header already on disk, so one
	// file spans every lifetime. JournalSyncEvery fsyncs it every N slots.
	JournalPath      string
	JournalSyncEvery int
	// Journal, instead of JournalPath, is a caller-owned journal.
	Journal *metrics.Journal

	// Registry, if non-nil, instruments every layer the node builds on one
	// registry: market, operator, protocol, and (when built) rack PDU and
	// WAL families.
	Registry *metrics.Registry
	// Tracer, if non-nil, traces the slot lifecycle; it is wired into the
	// loop, the operator and the server (see proto.MarketLoop.Tracer).
	Tracer *otrace.Tracer
}

func (c *Config) validate() error {
	switch {
	case c.Operator.Topology == nil:
		return errors.New("node: config needs a topology")
	case c.SlotLen <= 0:
		return fmt.Errorf("node: slot length %v", c.SlotLen)
	case c.WAL.Dir != "" && c.Durable != nil:
		return errors.New("node: WAL.Dir and Durable are exclusive")
	case c.JournalPath != "" && c.Journal != nil:
		return errors.New("node: JournalPath and Journal are exclusive")
	case c.OtherLoad != nil && len(c.OtherLoad) != len(c.Operator.Topology.PDUs):
		return fmt.Errorf("node: %d background traces for %d PDUs", len(c.OtherLoad), len(c.Operator.Topology.PDUs))
	}
	return nil
}

// Node is one assembled market node. Callers may set the Loop's observer
// hooks (OnSlot, OnSlotError, BeforeBids, Stop, FaultCounts) before Run.
type Node struct {
	Operator *operator.Operator
	Server   *proto.Server
	Loop     *proto.MarketLoop
	// Units are the emulated rack PDUs, one per rack (nil unless the
	// emergency loop is armed).
	Units []*rackpdu.PDU
	// Log and Recovered are the node's WAL and what recovery rebuilt from
	// it (nil without WAL.Dir).
	Log       *wal.Log
	Recovered *proto.Recovered
	// Journal is the slot journal (nil without one).
	Journal *metrics.Journal
	// ProtoMetrics is the protocol family set built from Registry, for the
	// caller's clients and fault injectors to share (nil without one).
	ProtoMetrics *proto.Metrics

	durable     *proto.Durable
	journalFile *os.File
}

// New builds a market node in dependency order: operator and rack PDUs,
// server, WAL and recovery, journal, clock, loop. On error everything
// already built is released.
func New(cfg Config) (_ *Node, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	topo := cfg.Operator.Topology
	armed := cfg.Operator.Emergency != nil
	var rpm *rackpdu.Metrics
	if reg := cfg.Registry; reg != nil {
		cfg.Operator.MarketOptions.Metrics = core.NewMarketMetrics(reg)
		cfg.Operator.Metrics = operator.NewMetrics(reg)
		n.ProtoMetrics = proto.NewMetrics(reg)
		if armed {
			rpm = rackpdu.NewMetrics(reg)
		}
		if cfg.WAL.Dir != "" {
			cfg.WAL.Metrics = wal.NewMetrics(reg)
		}
	}
	cfg.Operator.Tracer = cfg.Tracer
	if armed {
		n.Units = make([]*rackpdu.PDU, len(topo.Racks))
		for i, r := range topo.Racks {
			if n.Units[i], err = rackpdu.New(rackpdu.Config{
				ID:          r.ID,
				BudgetWatts: r.Guaranteed + r.SpotHeadroom,
				ResetDelay:  cfg.ResetDelay,
				Metrics:     rpm,
			}); err != nil {
				return nil, err
			}
		}
		rc := *cfg.Operator.Emergency
		observe := rc.SetBudget
		rc.SetBudget = func(rack int, watts float64) error {
			if observe != nil {
				if err := observe(rack, watts); err != nil {
					return err
				}
			}
			return n.Units[rack].SetBudget(watts)
		}
		cfg.Operator.Emergency = &rc
	}
	if n.Operator, err = operator.New(cfg.Operator); err != nil {
		return nil, err
	}
	so := cfg.Server
	so.OwnerOf = func(i int) string { return topo.Racks[i].Tenant }
	so.Metrics = n.ProtoMetrics
	so.Tracer = cfg.Tracer
	if n.Server, err = proto.NewServerOpts(cfg.Listen, topo.RackByID, so); err != nil {
		return nil, err
	}

	n.durable = cfg.Durable
	if cfg.WAL.Dir != "" {
		var rec *wal.Recovery
		if n.Log, rec, err = wal.Open(cfg.WAL); err != nil {
			return nil, err
		}
		if n.Recovered, err = proto.RecoverDurable(rec, n.Operator, n.Server); err != nil {
			return nil, err
		}
		if err := n.restore(&cfg); err != nil {
			return nil, err
		}
		n.durable = &proto.Durable{
			Log:       n.Log,
			OnCommit:  cfg.OnCommit,
			SaveState: func() ([]byte, error) { return n.extra(cfg.SaveState) },
		}
	}

	n.Journal = cfg.Journal
	if cfg.JournalPath != "" {
		if err := n.openJournal(cfg.JournalPath, cfg.JournalSyncEvery); err != nil {
			return nil, err
		}
	}

	lead := cfg.Lead
	if lead <= 0 {
		lead = 2 * cfg.SlotLen
	}
	clock, err := proto.NewSlotClock(
		time.Now().Add(lead).Add(-time.Duration(n.NextSlot())*cfg.SlotLen), cfg.SlotLen)
	if err != nil {
		return nil, err
	}
	n.Loop = &proto.MarketLoop{
		Server:                 n.Server,
		Operator:               n.Operator,
		Clock:                  clock,
		Reading:                n.referenceReading(&cfg),
		RackID:                 func(i int) string { return topo.Racks[i].ID },
		MaxConsecutiveFailures: cfg.MaxConsecutiveFailures,
		BreakerCooldownSlots:   cfg.BreakerCooldownSlots,
		Journal:                n.Journal,
		Durable:                n.durable,
		Tracer:                 cfg.Tracer,
	}
	if armed {
		n.Loop.CheckEmergencies = true
		n.Loop.BreakerTolerance = cfg.BreakerTolerance
		if n.Loop.BreakerTolerance == 0 {
			n.Loop.BreakerTolerance = defaultBreakerTolerance
		}
	}
	return n, nil
}

// NextSlot is the first slot this node runs: one past the last committed
// slot of a recovered state dir, 0 otherwise.
func (n *Node) NextSlot() int {
	if n.Recovered == nil {
		return 0
	}
	return n.Recovered.NextSlot
}

// Run drives the market loop for up to slots slots from NextSlot and
// returns how many cleared (see proto.MarketLoop.RunSlots).
func (n *Node) Run(slots int) (int, error) {
	return n.Loop.RunSlots(n.NextSlot(), slots)
}

// Close shuts the node down in order: the WAL closes (its final fsync,
// surfacing any sticky append error or skipped slot commit), the node's
// journal file syncs and closes, and the server stops.
func (n *Node) Close() error {
	var errs []error
	if n.durable != nil {
		if err := n.durable.Err(); err != nil {
			errs = append(errs, fmt.Errorf("WAL degraded: %w", err))
		}
	}
	if n.Log != nil {
		if err := n.Log.Close(); err != nil {
			errs = append(errs, fmt.Errorf("WAL degraded: %w", err))
		}
	}
	if n.journalFile != nil {
		if err := n.Journal.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("slot journal sync: %w", err))
		}
		n.journalFile.Close()
	}
	if n.Server != nil {
		n.Server.Close()
	}
	return errors.Join(errs...)
}

// Kill makes the node die the way a killed process does: the server's
// connections drop, the WAL's descriptors are yanked without flush or close
// (wal.Log.Kill), and the journal file closes unsynced — a plain close
// loses nothing already written.
func (n *Node) Kill() {
	n.Server.Close()
	if n.Log != nil {
		n.Log.Kill()
	}
	if n.journalFile != nil {
		n.journalFile.Close()
	}
}

// openJournal opens the node's journal file: truncated for a fresh market,
// appended to (header already on disk) for a recovered one. A recovered
// node whose journal file is empty starts it with a fresh header.
func (n *Node) openJournal(path string, syncEvery int) error {
	resumed := n.NextSlot() > 0
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resumed {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	n.journalFile = f
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		resumed = false
	}
	n.Journal = metrics.NewJournalOpts(f, metrics.JournalOptions{SyncEvery: syncEvery, Resumed: resumed})
	return nil
}

// referenceReading builds the node's per-slot power reading: racks at
// referenceUtilization of their guarantee plus any Surge, capped at their
// rack PDU's current budget when the emergency loop is armed (a reclaimed
// rack cannot draw above its reset budget), and background load from
// OtherLoad. The returned reading's buffers are reused every slot.
func (n *Node) referenceReading(cfg *Config) func(slot int) power.Reading {
	topo := cfg.Operator.Topology
	rd := power.Reading{
		RackWatts:     make([]float64, len(topo.Racks)),
		OtherPDUWatts: make([]float64, len(topo.PDUs)),
	}
	for i, r := range topo.Racks {
		rd.RackWatts[i] = referenceUtilization * r.Guaranteed
	}
	surge, units, others := cfg.Surge, n.Units, cfg.OtherLoad
	return func(slot int) power.Reading {
		for m, tr := range others {
			rd.OtherPDUWatts[m] = tr.At(slot)
		}
		if surge == nil && units == nil {
			return rd
		}
		for i, r := range topo.Racks {
			w := referenceUtilization * r.Guaranteed
			if surge != nil {
				w += surge(slot, i)
			}
			if units != nil {
				if b := units[i].Budget(); w > b {
					w = b
				}
			}
			rd.RackWatts[i] = w
		}
		return rd
	}
}

// durableExtra is the node's payload on every slot record: the emulated
// rack PDUs' budgets (physical state the next lifetime's readings depend
// on) plus the caller's opaque state.
type durableExtra struct {
	Budgets []float64       `json:"budgets,omitempty"`
	Caller  json.RawMessage `json:"caller,omitempty"`
}

// extra builds one slot record's payload from the current rack PDU budgets
// and the caller's state (nil hook: none); nil when there is neither.
func (n *Node) extra(caller func() ([]byte, error)) ([]byte, error) {
	var e durableExtra
	if caller != nil {
		raw, err := caller()
		if err != nil {
			return nil, err
		}
		e.Caller = raw
	}
	if n.Units == nil && e.Caller == nil {
		return nil, nil
	}
	if n.Units != nil {
		e.Budgets = make([]float64, len(n.Units))
		for i, u := range n.Units {
			e.Budgets[i] = u.Budget()
		}
	}
	return json.Marshal(e)
}

// restore rebuilds the caller's state from the recovered record's payload
// and re-applies its rack PDU budgets — the physical state the next
// reading depends on.
func (n *Node) restore(cfg *Config) error {
	raw := n.Recovered.Extra
	if len(raw) == 0 {
		return nil
	}
	var e durableExtra
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("node: corrupt durable extra: %w", err)
	}
	if cfg.RestoreState != nil && e.Caller != nil {
		if err := cfg.RestoreState(e.Caller); err != nil {
			return err
		}
	}
	if n.Units == nil || e.Budgets == nil {
		return nil
	}
	if len(e.Budgets) != len(n.Units) {
		return fmt.Errorf("node: recovered %d rack budgets for %d racks", len(e.Budgets), len(n.Units))
	}
	for i, b := range e.Budgets {
		if err := n.Units[i].SetBudget(b); err != nil {
			return err
		}
	}
	return nil
}
