// Package wal is SpotDC's durable-state subsystem: an append-only,
// segmented write-ahead log of full-state records with crash recovery.
// The operator's market obligations outlive any single slot — invoices
// accumulate for a month, an emergency suspension must persist until the
// element recovers — so the market loop commits its whole post-slot state
// here at every slot boundary before broadcasting, and a restarted
// operator restores the newest intact record to land exactly where it
// died.
//
// The subsystem is deliberately generic: records are opaque (type byte +
// payload), so the packages that own the state (operator, proto, billing)
// serialize themselves and wal stays import-cycle-free and stdlib-only.
// Its one assumption about payloads is that each record supersedes every
// record before it, which is what lets the log forget old segments.
//
// On-disk format. Every record is one frame, reusing the wire codec's
// framing conventions (internal/proto binary codec): a 6-byte header
// [magic 0xD7][version 0x01][type][u24 BE payload length], the payload,
// then a u32 BE CRC32C (Castagnoli) over header+payload. Frames are
// concatenated into segment files named wal-<first seq, %016x>.seg.
//
// Retention. When a full segment is sealed (fsynced), every older segment
// is deleted: at most the sealed segment and the active one stay on disk,
// so the newest record always has an older fallback behind it.
//
// Recovery reads the newest gap-free run of segments. The first torn or
// CRC-failing record ends a run and is truncated there — a crash
// mid-write must cost the tail record, never the run — and the newest
// run that still holds a record wins. Segments outside it are deleted:
// older ones are superseded (a stale one may survive a deletion that
// never reached disk), newer ones hold nothing. A directory holding
// snap-*.snap files is in the older delta-and-snapshot format and is
// refused (ErrOldFormat), never recovered as an empty log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	frameMagic   = 0xD7
	frameVersion = 0x01
	headerSize   = 6
	crcSize      = 4

	// MaxRecord bounds one record's payload (the u24 length field). A
	// 15,000-rack slot record is ~180 KB of JSON, comfortably inside it.
	MaxRecord = 1<<24 - 1

	segPrefix = "wal-"
	segSuffix = ".seg"
	// oldSnapPrefix/oldSnapSuffix name the snapshot files of the older
	// delta-and-snapshot format; their presence refuses the directory.
	oldSnapPrefix = "snap-"
	oldSnapSuffix = ".snap"

	// snapFrameType tagged the older format's snapshot frames. It stays
	// reserved, so no record can be mistaken for one: record types passed
	// to Append are caller-defined and capped below it.
	snapFrameType = 0xFF
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrOldFormat reports a state directory written in the older
// delta-and-snapshot format (snapshot files, or per-slot delta records
// that the owning package recognises by type). It cannot be recovered
// into full-state records; it is never treated as an empty log.
var ErrOldFormat = errors.New("wal: state dir in the older delta-and-snapshot format")

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncEveryRecord fsyncs after every Append: nothing acknowledged is
	// ever lost, at one fsync per record.
	SyncEveryRecord SyncPolicy = iota
	// SyncEverySlot leaves fsync to the caller's SlotSync at each slot
	// boundary: one fsync per market slot, the natural commit point of the
	// slot loop (a crash costs at most the in-flight slot, which the
	// restarted market re-runs deterministically).
	SyncEverySlot
	// SyncTimer fsyncs from a background timer (Options.TimerInterval):
	// cheapest, but a crash may lose every record since the last tick.
	SyncTimer
)

// String names the policy (the -fsync flag values).
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryRecord:
		return "record"
	case SyncEverySlot:
		return "slot"
	case SyncTimer:
		return "timer"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a -fsync flag value ("record", "slot" or "timer").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "slot":
		return SyncEverySlot, nil
	case "record":
		return SyncEveryRecord, nil
	case "timer":
		return SyncTimer, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want record, slot or timer)", s)
	}
}

// Options configures a log.
type Options struct {
	// Dir is the state directory; created if missing. One log per dir.
	Dir string
	// Policy selects the fsync discipline (default SyncEverySlot).
	Policy SyncPolicy
	// TimerInterval is the SyncTimer tick (default 100ms).
	TimerInterval time.Duration
	// SegmentBytes rotates the active segment once it grows past this many
	// bytes (default 8 MiB).
	SegmentBytes int64
	// Metrics, if non-nil, receives wal_* instrumentation.
	Metrics *Metrics
}

func (o *Options) setDefaults() {
	if o.TimerInterval <= 0 {
		o.TimerInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
}

// Record is one recovered log entry.
type Record struct {
	// Seq is the record's log-wide sequence number.
	Seq uint64
	// Type is the caller-defined record type byte from Append.
	Type byte
	// Data is the payload.
	Data []byte
}

// Recovery is what Open found on disk: every intact record of the
// recovered run of segments, in sequence order (the newest is the restore
// point). The truncation counters report how much a crash (or corruption)
// cost.
type Recovery struct {
	// Records are the intact records, ascending by Seq.
	Records []Record
	// Truncations counts torn/CRC-failing tails cut off during recovery
	// (0 after a clean shutdown, 1 after a typical crash).
	Truncations int
	// TruncatedBytes is how many trailing bytes those truncations dropped.
	TruncatedBytes int64
	// DroppedSegments counts segment files outside the recovered run
	// (superseded or post-corruption) removed outright.
	DroppedSegments int
}

// Empty reports a fresh log: no record to restore.
func (r *Recovery) Empty() bool {
	return r == nil || len(r.Records) == 0
}

// Log is an append-only segmented write-ahead log. All methods are safe
// for concurrent use; the append path is allocation-free apart from the
// OS write itself (the frame header is built in a scratch buffer).
type Log struct {
	opts Options
	met  *Metrics

	mu      sync.Mutex
	seg     *os.File // active segment
	segBase uint64   // sequence of the active segment's first record
	segLen  int64    // bytes written to the active segment
	segs    []uint64 // all segment base sequences, ascending (incl. active)
	nextSeq uint64
	dirty   bool // unsynced bytes in the active segment
	closed  bool
	err     error // sticky I/O error

	hdr [headerSize]byte
	crc [crcSize]byte

	timerStop chan struct{}
	timerWG   sync.WaitGroup
}

// Open opens (or creates) the log in opts.Dir and recovers its durable
// state. The returned Recovery is complete before any new Append: callers
// restore their in-memory state from it, then resume appending.
func Open(opts Options) (*Log, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: empty state dir")
	}
	opts.setDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, met: opts.Metrics}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if l.opts.Policy == SyncTimer {
		l.timerStop = make(chan struct{})
		l.timerWG.Add(1)
		go l.timerLoop()
	}
	return l, rec, nil
}

// segPath names a segment file; sequences are zero-padded hex so lexical
// order is numeric order.
func (l *Log) segPath(base uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix))
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// scannedRec is one frame parsed out of a segment.
type scannedRec struct {
	typ  byte
	data []byte
}

// scanFrames parses concatenated frames out of data, returning the parsed
// records, the byte length of the valid prefix, and whether a torn or
// corrupt tail was found after it.
func scanFrames(data []byte) (recs []scannedRec, validLen int, torn bool) {
	off := 0
	for off < len(data) {
		if len(data)-off < headerSize {
			return recs, off, true
		}
		if data[off] != frameMagic || data[off+1] != frameVersion {
			return recs, off, true
		}
		n := int(data[off+3])<<16 | int(data[off+4])<<8 | int(data[off+5])
		end := off + headerSize + n + crcSize
		if end > len(data) {
			return recs, off, true
		}
		want := binary.BigEndian.Uint32(data[end-crcSize : end])
		if crc32.Checksum(data[off:end-crcSize], castagnoli) != want {
			return recs, off, true
		}
		payload := make([]byte, n)
		copy(payload, data[off+headerSize:end-crcSize])
		recs = append(recs, scannedRec{typ: data[off+2], data: payload})
		off = end
	}
	return recs, off, false
}

// segScan is one segment file as recovery read it.
type segScan struct {
	base     uint64
	frames   []scannedRec
	validLen int // bytes of intact frames; less than size when torn
	size     int
}

func (s *segScan) end() uint64 { return s.base + uint64(len(s.frames)) }

// recover scans the directory, picks the run of segments to resume from,
// removes every other segment, truncates a torn tail, and leaves the log
// positioned to append after the last intact record.
func (l *Log) recover() (*Recovery, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segScan
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, segScan{base: seq})
		} else if _, ok := parseSeq(e.Name(), oldSnapPrefix, oldSnapSuffix); ok {
			return nil, fmt.Errorf("%w: %s holds snapshot file %s", ErrOldFormat, l.opts.Dir, e.Name())
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for i := range segs {
		data, err := os.ReadFile(l.segPath(segs[i].base))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs[i].frames, segs[i].validLen, _ = scanFrames(data)
		segs[i].size = len(data)
	}

	// A segment continues the run before it when that run's last segment
	// is intact and ends exactly where this one begins. Recover from the
	// run holding the newest record (any run when none holds one).
	continues := func(i int) bool {
		p := &segs[i-1]
		return p.validLen == p.size && p.end() == segs[i].base
	}
	lo, hi := 0, 0
	if len(segs) > 0 {
		newest := len(segs) - 1
		for newest > 0 && len(segs[newest].frames) == 0 {
			newest--
		}
		lo, hi = newest, newest+1
		for lo > 0 && continues(lo) {
			lo--
		}
		for hi < len(segs) && continues(hi) {
			hi++
		}
	}

	rec := &Recovery{}
	for i := range segs {
		if i < lo || i >= hi {
			if err := os.Remove(l.segPath(segs[i].base)); err != nil {
				return nil, fmt.Errorf("wal: dropping segment: %w", err)
			}
			rec.DroppedSegments++
		}
	}
	if rec.DroppedSegments > 0 {
		if err := syncDir(l.opts.Dir); err != nil {
			return nil, err
		}
	}
	run := segs[lo:hi]
	for _, sg := range run {
		for j, fr := range sg.frames {
			rec.Records = append(rec.Records, Record{Seq: sg.base + uint64(j), Type: fr.typ, Data: fr.data})
		}
		l.segs = append(l.segs, sg.base)
	}
	if len(run) == 0 {
		return rec, l.openSegmentLocked(0)
	}

	// Only a run's last segment can be torn (a tear ends a run): cut the
	// tail there and reopen that segment for appends.
	last := run[len(run)-1]
	if last.validLen < last.size {
		rec.Truncations++
		rec.TruncatedBytes = int64(last.size - last.validLen)
		if err := os.Truncate(l.segPath(last.base), int64(last.validLen)); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if l.met != nil {
			l.met.truncations.Inc()
		}
	}
	f, err := os.OpenFile(l.segPath(last.base), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.seg = f
	l.segBase = last.base
	l.segLen = int64(last.validLen)
	l.nextSeq = last.end()
	l.observeSegments()
	return rec, nil
}

// openSegmentLocked creates a fresh segment whose first record will carry
// sequence base, and fsyncs the directory so the file itself is durable.
func (l *Log) openSegmentLocked(base uint64) error {
	f, err := os.OpenFile(l.segPath(base), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.seg = f
	l.segBase = base
	l.segLen = 0
	l.segs = append(l.segs, base)
	l.observeSegments()
	return syncDir(l.opts.Dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: dir fsync: %w", err)
	}
	return nil
}

func (l *Log) observeSegments() {
	if l.met != nil {
		l.met.segments.Set(float64(len(l.segs)))
	}
}

// fail records the first I/O error; every later call returns it. A durable
// log that cannot write must not silently pretend it did.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Append writes one record and returns its sequence number. Under
// SyncEveryRecord the record is durable on return; under the other
// policies durability arrives at the next SlotSync / timer tick / Close.
// The record must supersede every earlier one: the rotation it may
// trigger deletes the segments before the one it seals.
func (l *Log) Append(typ byte, data []byte) (uint64, error) {
	if typ >= snapFrameType {
		return 0, fmt.Errorf("wal: record type %#x reserved", typ)
	}
	if len(data) > MaxRecord {
		return 0, fmt.Errorf("wal: record %d bytes exceeds %d", len(data), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	l.hdr = [headerSize]byte{frameMagic, frameVersion, typ,
		byte(len(data) >> 16), byte(len(data) >> 8), byte(len(data))}
	crc := crc32.Update(0, castagnoli, l.hdr[:])
	crc = crc32.Update(crc, castagnoli, data)
	binary.BigEndian.PutUint32(l.crc[:], crc)
	if _, err := l.seg.Write(l.hdr[:]); err != nil {
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	if _, err := l.seg.Write(data); err != nil {
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	if _, err := l.seg.Write(l.crc[:]); err != nil {
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	seq := l.nextSeq
	l.nextSeq++
	l.segLen += int64(headerSize + len(data) + crcSize)
	l.dirty = true
	if l.met != nil {
		l.met.appends.Inc()
		l.met.appendBytes.Add(uint64(headerSize + len(data) + crcSize))
	}
	if l.opts.Policy == SyncEveryRecord {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.segLen >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// syncLocked fsyncs the active segment if it holds unsynced bytes.
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.seg.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.dirty = false
	if l.met != nil {
		l.met.fsyncs.Inc()
		l.met.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// SlotSync is the market loop's per-slot commit barrier: under
// SyncEverySlot it fsyncs, under the other policies it is a no-op (the
// record policy already synced, the timer policy accepts the risk).
func (l *Log) SlotSync() error {
	if l.opts.Policy != SyncEverySlot {
		return nil
	}
	return l.Sync()
}

// rotateLocked seals the active segment (flush + fsync), deletes every
// older segment — the sealed segment's newest record supersedes them all —
// and opens a fresh segment starting at the next sequence. The new
// segment's directory fsync also persists the deletions; a deletion that
// fails or never reaches disk leaves a stale segment that the next
// rotation retries and recovery skips.
func (l *Log) rotateLocked() error {
	if l.segLen == 0 && l.segBase == l.nextSeq {
		return nil // already fresh
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	kept := l.segs[:0]
	for _, base := range l.segs {
		if base < l.segBase && os.Remove(l.segPath(base)) == nil {
			continue
		}
		kept = append(kept, base)
	}
	l.segs = kept
	if err := l.openSegmentLocked(l.nextSeq); err != nil {
		return l.fail(err)
	}
	return nil
}

// NextSeq returns the sequence the next Append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Policy returns the log's fsync policy.
func (l *Log) Policy() SyncPolicy { return l.opts.Policy }

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Log) timerLoop() {
	defer l.timerWG.Done()
	t := time.NewTicker(l.opts.TimerInterval)
	defer t.Stop()
	for {
		select {
		case <-l.timerStop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

func (l *Log) stopTimer() {
	if l.timerStop != nil {
		close(l.timerStop)
		l.timerWG.Wait()
		l.timerStop = nil
	}
}

// Close flushes, fsyncs, and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.mu.Unlock()
	l.stopTimer()
	return err
}

// Kill abruptly closes the log's file descriptors without the final fsync
// — the crash-injection hook: whatever the OS had not persisted is exactly
// what a process kill would have lost. Test harnesses only.
func (l *Log) Kill() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		_ = l.seg.Close()
	}
	l.mu.Unlock()
	l.stopTimer()
}
