// Package proto implements the SpotDC communication layer of Fig. 5: a
// simple management protocol between the operator and remote tenants,
// carrying HeartBeat, Bid, Price and Allocation messages over TCP.
//
// Two wire encodings carry the same six message types: the historical
// newline-delimited JSON (Codec) and a compact length-prefixed binary
// framing (BinaryCodec, see binary.go). The encoding is negotiated at
// hello: the server detects which encoding the client's first byte opened
// with and answers in kind, so old JSON clients interoperate unchanged
// with binary ones on the same market.
//
// Failure semantics follow Section III-C's "handling exceptions": any
// communication loss resumes the default of no spot capacity for the
// affected tenant — a missing or late bid simply does not participate in
// that slot's clearing, and a tenant that misses the price broadcast knows
// it has no grant.
package proto

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// ErrProtocol reports a malformed or unexpected message.
var ErrProtocol = errors.New("proto: protocol error")

// MsgType enumerates the wire messages.
type MsgType string

// Wire message types.
const (
	// TypeHello registers a tenant and its racks with the operator.
	TypeHello MsgType = "hello"
	// TypeHeartBeat keeps the session alive and carries slot timing.
	TypeHeartBeat MsgType = "heartbeat"
	// TypeBid submits one slot's rack-level demand-function bids.
	TypeBid MsgType = "bid"
	// TypePrice broadcasts the clearing price and per-rack grants.
	TypePrice MsgType = "price"
	// TypeBudgetReset pushes emergency rack-budget resets to the owning
	// tenants (Section III-C, Fig. 6): Grants carries the new per-rack
	// budgets in watts, which the tenant's capping controller must track.
	// Clients that predate the message skip it (unknown types are ignored
	// in the price wait loop), falling back to operator-side enforcement.
	TypeBudgetReset MsgType = "budget_reset"
	// TypeError reports a rejected message.
	TypeError MsgType = "error"
)

// RackBid is the four-parameter wire form of the piece-wise linear demand
// function (Eqn. 5).
type RackBid struct {
	// Rack is the rack ID as registered with the operator.
	Rack string `json:"rack"`
	// DMax/QMin and DMin/QMax are the demand-function parameters.
	DMax float64 `json:"d_max"`
	QMin float64 `json:"q_min"`
	DMin float64 `json:"d_min"`
	QMax float64 `json:"q_max"`
}

// Grant is one rack's allocation in a price broadcast.
type Grant struct {
	Rack  string  `json:"rack"`
	Watts float64 `json:"watts"`
}

// Message is the wire envelope. Unused fields are omitted per type.
type Message struct {
	Type MsgType `json:"type"`
	// Tenant identifies the sender (hello, bid) or addressee (price).
	Tenant string `json:"tenant,omitempty"`
	// Slot is the time slot the message concerns.
	Slot int `json:"slot,omitempty"`
	// Racks registers rack IDs (hello).
	Racks []string `json:"racks,omitempty"`
	// Bids carries demand functions (bid).
	Bids []RackBid `json:"bids,omitempty"`
	// Price is the clearing price in $/kW·h (price).
	Price float64 `json:"price,omitempty"`
	// Grants carries the per-rack spot allocations (price), or the new
	// per-rack power budgets in watts (budget_reset).
	Grants []Grant `json:"grants,omitempty"`
	// Detail carries the error text (error).
	Detail string `json:"detail,omitempty"`
	// Trace is the optional traceparent field (otrace.FormatTraceparent):
	// on price/budget_reset it carries the operator's slot trace for the
	// tenant to adopt; on bid it carries the tenant's provisional trace
	// (informational). JSON peers that predate the field ignore it; the
	// binary framing carries it only on version-2 frames (see binary.go's
	// negotiation), so old binary peers interoperate unchanged.
	Trace string `json:"trace,omitempty"`
}

// MaxLineBytes bounds one wire message; bids are tiny (four parameters per
// rack), so anything larger is a protocol violation.
const MaxLineBytes = 1 << 20

// Encoding selects the wire encoding a client opens its session with. The
// server always answers in whichever encoding the client spoke first.
type Encoding int

// Wire encodings.
const (
	// WireJSON is the historical newline-delimited JSON encoding — the
	// interop default.
	WireJSON Encoding = iota
	// WireBinary is the compact length-prefixed binary framing (binary.go):
	// one buffered write per message, allocation-free in steady state.
	WireBinary
)

// String names the encoding (the -wire flag values).
func (e Encoding) String() string {
	switch e {
	case WireJSON:
		return "json"
	case WireBinary:
		return "binary"
	default:
		return fmt.Sprintf("Encoding(%d)", int(e))
	}
}

// ParseEncoding parses a -wire flag value ("json" or "binary").
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "json":
		return WireJSON, nil
	case "binary":
		return WireBinary, nil
	default:
		return 0, fmt.Errorf("%w: unknown wire encoding %q (want json or binary)", ErrProtocol, s)
	}
}

// Wire is one session's message transport: a codec bound to a stream. Both
// the JSON Codec and the BinaryCodec implement it. Send and Recv are each
// single-goroutine (one writer, one reader — the two may be distinct
// goroutines); codecs keep per-direction scratch, so interleaving two
// senders corrupts frames.
type Wire interface {
	// Send writes one message.
	Send(m Message) error
	// Recv reads one message; io.EOF signals a clean close. Slices inside
	// the returned Message may reference codec-owned scratch that is
	// overwritten by the next Recv — callers that retain them must copy.
	Recv() (Message, error)
	// Close closes the underlying stream.
	Close() error
	// Encoding identifies the codec's wire encoding.
	Encoding() Encoding
}

// Codec reads and writes newline-delimited JSON messages on a stream.
type Codec struct {
	r io.Reader
	// in buffers input, in[:next] being the line Recv returned last. A
	// partly read line survives a read error here, so a Recv that timed
	// out resumes it (a bufio.Scanner's errors are sticky: one timed-out
	// wait would make the session deaf).
	in   []byte
	next int
	w    *bufio.Writer
	c    io.Closer
}

// NewCodec wraps a connection.
func NewCodec(rw io.ReadWriteCloser) *Codec {
	return newJSONCodec(rw, rw)
}

// newJSONCodec builds the JSON codec over an explicit reader (the server
// peeks the first byte through a shared bufio.Reader to negotiate the
// encoding, then hands the same reader here).
func newJSONCodec(r io.Reader, wc io.WriteCloser) *Codec {
	return &Codec{r: r, in: make([]byte, 0, 4096), w: bufio.NewWriter(wc), c: wc}
}

// Encoding identifies the codec as the JSON wire encoding.
func (c *Codec) Encoding() Encoding { return WireJSON }

// Send writes one message.
func (c *Codec) Send(m Message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv reads one message. io.EOF signals a clean close.
func (c *Codec) Recv() (Message, error) {
	line, err := c.readLine()
	if err != nil {
		return Message{}, err
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("%w: missing type", ErrProtocol)
	}
	return m, nil
}

// readLine returns the next line without its "\n" (or "\r\n"), valid until
// the next call. A final unterminated line before EOF counts as a line.
// Lines longer than MaxLineBytes fail with ErrProtocol.
func (c *Codec) readLine() ([]byte, error) {
	c.in = c.in[:copy(c.in, c.in[c.next:])]
	c.next = 0
	for scanned := 0; ; {
		if i := bytes.IndexByte(c.in[scanned:], '\n'); i >= 0 {
			c.next = scanned + i + 1
			return bytes.TrimSuffix(c.in[:scanned+i], cr), nil
		}
		if scanned = len(c.in); scanned >= MaxLineBytes {
			return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, MaxLineBytes)
		}
		if scanned == cap(c.in) {
			c.in = append(make([]byte, 0, min(2*scanned, MaxLineBytes)), c.in...)
		}
		// Scan whatever arrived before acting on an error; a lasting error
		// repeats on the next Read.
		n, err := c.r.Read(c.in[scanned:cap(c.in)])
		if c.in = c.in[:scanned+n]; n > 0 || err == nil {
			continue
		}
		if err == io.EOF && scanned > 0 {
			c.next = scanned
			return bytes.TrimSuffix(c.in, cr), nil
		}
		return nil, err
	}
}

var cr = []byte{'\r'}

// Close closes the underlying stream.
func (c *Codec) Close() error { return c.c.Close() }

// deadline is the per-message I/O deadline; the paper's slots are minutes
// long, so a second is generous.
const deadline = 5 * time.Second

// SetConnDeadline arms a network deadline when the stream is a net.Conn.
func setConnDeadline(rw io.ReadWriteCloser, d time.Duration) {
	if conn, ok := rw.(net.Conn); ok {
		_ = conn.SetDeadline(time.Now().Add(d))
	}
}
