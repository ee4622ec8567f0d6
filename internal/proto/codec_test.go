package proto

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// TestJSONCodecRecvSurvivesTimeout pins that a read timeout does not make a
// JSON session deaf: after one Recv times out, a fresh deadline and a new
// message must be received, and a line split across a timeout must be
// resumed rather than lost.
func TestJSONCodecRecvSurvivesTimeout(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	codec := NewCodec(local)
	write := func(s string) <-chan error {
		errc := make(chan error, 1)
		go func() { _, err := remote.Write([]byte(s)); errc <- err }()
		return errc
	}
	recvTimeout := func(what string) {
		t.Helper()
		_ = local.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if _, err := codec.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: Recv = %v, want a deadline timeout", what, err)
		}
		_ = local.SetReadDeadline(time.Now().Add(5 * time.Second))
	}

	recvTimeout("idle session")
	sent := write("{\"type\":\"heartbeat\",\"slot\":7}\n")
	if m, err := codec.Recv(); err != nil || m.Type != TypeHeartBeat || m.Slot != 7 {
		t.Fatalf("Recv after a timeout = %+v, %v; want the slot-7 heartbeat", m, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	line := "{\"type\":\"heartbeat\",\"slot\":8}\r\n"
	sent = write(line[:12])
	recvTimeout("half a line")
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	sent = write(line[12:])
	if m, err := codec.Recv(); err != nil || m.Slot != 8 {
		t.Fatalf("Recv of a line split by a timeout = %+v, %v; want the slot-8 heartbeat", m, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestJSONCodecRecvLineLimit pins MaxLineBytes on the JSON path: a line
// that fits (newline included) decodes, a longer one is a protocol error.
func TestJSONCodecRecvLineLimit(t *testing.T) {
	pad := func(n int) string {
		head := `{"type":"error","detail":"`
		tail := "\"}\n"
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	fits := NewCodec(nopCloser{strings.NewReader(pad(MaxLineBytes))})
	if m, err := fits.Recv(); err != nil || m.Type != TypeError {
		t.Fatalf("%d-byte line: %+v, %v", MaxLineBytes, m.Type, err)
	}
	over := NewCodec(nopCloser{strings.NewReader(pad(MaxLineBytes + 1))})
	if _, err := over.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("%d-byte line: %v, want ErrProtocol", MaxLineBytes+1, err)
	}
}

type nopCloser struct{ *strings.Reader }

func (nopCloser) Write(p []byte) (int, error) { return len(p), nil }
func (nopCloser) Close() error                { return nil }
