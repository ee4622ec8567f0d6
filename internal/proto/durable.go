// Durable market state: the glue between the market loop and internal/wal.
//
// Commit discipline: a slot is committed when its WAL record — the
// operator's full post-slot checkpoint plus the caller's state — is
// appended (and, under the every-slot policy, fsynced), after the operator
// has run the slot but before any broadcast goes out. Degraded slots commit
// the same record: the books are unchanged, the slot index advances.
// Recovery restores the newest intact record, so nothing is replayed; a
// crash that tears the record of slot K restores K-1 and the restarted loop
// re-runs K from the same deterministic inputs. A crash after the commit
// but before the broadcast bills a grant tenants never heard — the
// standard write-ahead trade-off: the books never lose a committed slot,
// at the cost of occasionally charging for an undelivered one (see DESIGN
// §4h).
package proto

import (
	"encoding/json"
	"fmt"
	"sync"

	"spotdc/internal/operator"
	"spotdc/internal/wal"
)

const (
	// walTypeSlot is the WAL record type of one committed slot.
	walTypeSlot byte = 0x02
	// walTypeDelta tagged the older format's per-slot books deltas;
	// recovery refuses a log holding one (wal.ErrOldFormat).
	walTypeDelta byte = 0x01
)

// Durable threads a write-ahead log through the market loop: one
// full-state record per slot boundary, and recovery back into the operator
// and server.
type Durable struct {
	// Log is the open write-ahead log (required).
	Log *wal.Log
	// SaveState, if non-nil, contributes opaque caller state (e.g. a
	// billing ledger) to every slot record; RecoverDurable hands the
	// restored record's back in Recovered.Extra. The hook keeps this
	// package free of higher-layer imports.
	SaveState func() ([]byte, error)
	// OnCommit, if non-nil, runs right before a cleared slot's record is
	// built: the hook higher layers use to fold the slot into their own
	// state (e.g. a billing ledger) so the SaveState capture already
	// includes it. Degraded slots do not fire it.
	OnCommit func(slot int, out operator.SlotOutcome)

	mu  sync.Mutex
	err error // first skipped commit
}

// durableSlotRecord is the JSON payload of one walTypeSlot record.
type durableSlotRecord struct {
	Slot       int                 `json:"slot"`
	Checkpoint operator.Checkpoint `json:"checkpoint"`
	Extra      json.RawMessage     `json:"extra,omitempty"`
}

func (d *Durable) validate() error {
	if d.Log == nil {
		return fmt.Errorf("%w: Durable needs an open WAL", ErrProtocol)
	}
	return nil
}

// commitSlot appends the slot's record and makes it durable under the
// log's sync policy. A commit is all or nothing: if the caller state or
// the record cannot be encoded, nothing is appended and the failure is
// kept for Err. Neither that nor a WAL failure (sticky inside the log)
// stops the market — availability over durability; the next record
// carries the full state again and supersedes a skipped one.
func (d *Durable) commitSlot(op *operator.Operator, slot int) {
	rec := durableSlotRecord{Slot: slot, Checkpoint: op.Checkpoint()}
	var err error
	if d.SaveState != nil {
		rec.Extra, err = d.SaveState()
	}
	var data []byte
	if err == nil {
		data, err = json.Marshal(rec)
	}
	if err != nil {
		d.mu.Lock()
		if d.err == nil {
			d.err = fmt.Errorf("proto: slot %d not committed: %w", slot, err)
		}
		d.mu.Unlock()
		return
	}
	if _, err := d.Log.Append(walTypeSlot, data); err != nil {
		return
	}
	_ = d.Log.SlotSync()
}

// Err returns the first slot commit skipped because its record could not
// be built (nil if none). Callers surface it at shutdown next to the log's
// own sticky error.
func (d *Durable) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Recovered reports what RecoverDurable rebuilt from a state directory.
type Recovered struct {
	// NextSlot is where the market loop should resume: one past the last
	// committed slot (0 for a fresh directory).
	NextSlot int
	// SlotsReplayed counts the intact slot records recovery read; only the
	// newest is restored — nothing is replayed.
	SlotsReplayed int
	// Truncations echoes the WAL's torn-tail repairs (wal.Recovery).
	Truncations int
	// Extra is the caller state saved with the restored record (nil if
	// none).
	Extra []byte
}

// RecoverDurable rebuilds market state from a WAL recovery: the newest
// slot record restores the operator checkpoint and the server's market
// position. srv may be nil (recovery before the server exists); the
// operator is required. A log in the older delta format is refused with
// wal.ErrOldFormat.
func RecoverDurable(rec *wal.Recovery, op *operator.Operator, srv *Server) (*Recovered, error) {
	if op == nil {
		return nil, fmt.Errorf("%w: recovery needs an operator", ErrProtocol)
	}
	out := &Recovered{Truncations: rec.Truncations}
	var newest *wal.Record
	for i := range rec.Records {
		switch r := &rec.Records[i]; r.Type {
		case walTypeSlot:
			out.SlotsReplayed++
			newest = r
		case walTypeDelta:
			return nil, fmt.Errorf("%w: record %d is a per-slot delta (type %#x)", wal.ErrOldFormat, r.Seq, r.Type)
		}
	}
	if newest == nil {
		return out, nil
	}
	var sr durableSlotRecord
	if err := json.Unmarshal(newest.Data, &sr); err != nil {
		return nil, fmt.Errorf("proto: corrupt slot record seq %d: %w", newest.Seq, err)
	}
	if err := op.Restore(sr.Checkpoint); err != nil {
		return nil, fmt.Errorf("proto: slot record %d: %w", sr.Slot, err)
	}
	out.NextSlot = sr.Slot + 1
	out.Extra = sr.Extra
	if srv != nil {
		// Position the bid window so reconnecting tenants land in the
		// correct slot: bids at or before the last committed slot are stale.
		srv.RestoreMarketPosition(sr.Slot)
	}
	return out, nil
}
