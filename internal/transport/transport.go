// Package transport is the shared connection layer of the networked control
// plane: uvarint length-prefixed [0xBF] frames over TCP or unix sockets,
// dial/listen address schemes, and a peer connection (Conn) with a bounded
// send queue, keepalive heartbeats, deadline-based peer-death detection and
// an exponential reconnect backoff helper. Both the entkd daemon socket and
// the remote-RTS agent links speak this framing — it is the one length-prefix
// implementation in the tree (docs/wire-format.md, "Socket framing").
//
// The framing is payload-agnostic: a frame body is one msgcodec message,
// validated by its decoder, not here.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// MaxFrame bounds one socket frame; a hostile or corrupt length prefix fails
// fast instead of driving an over-allocation. The length is validated before
// any buffer is allocated (the same discipline as the journal's torn-tail
// handling).
const MaxFrame = 64 << 20

// WriteFrame writes one length-prefixed frame. Into a *bufio.Writer the
// length is appended to the writer's own free space (AvailableBuffer), which
// allocates nothing; any other writer is handed a length of its own.
func WriteFrame(w io.Writer, body []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		if bw.Available() < binary.MaxVarintLen64 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		hdr = bw.AvailableBuffer()
	} else {
		hdr = make([]byte, 0, binary.MaxVarintLen64)
	}
	if _, err := w.Write(binary.AppendUvarint(hdr, uint64(len(body)))); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame, bounding it by MaxFrame.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit reads one length-prefixed frame, bounding it by max bytes.
// The bound is checked before the body buffer is allocated, so a garbage
// length prefix costs an error, never memory.
func ReadFrameLimit(r *bufio.Reader, max uint64) ([]byte, error) {
	n, err := readLength(r, max)
	if err != nil {
		return nil, err
	}
	return readBody(r, make([]byte, n))
}

// readLength reads a frame's length prefix and holds it to max.
func readLength(r *bufio.Reader, max uint64) (uint64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > max {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, max)
	}
	return n, nil
}

// readBody fills body, a frame's length, from r.
func readBody(r *bufio.Reader, body []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// SplitAddr parses a transport address into a net network/address pair. Two
// schemes exist: "unix:<path>" selects a unix-domain socket, "tcp:<host:port>"
// a TCP endpoint. A bare "<host:port>" defaults to TCP, so plain addresses
// keep working on the common path.
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		address = strings.TrimPrefix(addr, "unix:")
		if address == "" {
			return "", "", fmt.Errorf("transport: empty unix socket path in %q", addr)
		}
		return "unix", address, nil
	case strings.HasPrefix(addr, "tcp:"):
		address = strings.TrimPrefix(addr, "tcp:")
	default:
		address = addr
	}
	if address == "" {
		return "", "", fmt.Errorf("transport: empty address %q", addr)
	}
	if _, _, err := net.SplitHostPort(address); err != nil {
		return "", "", fmt.Errorf("transport: address %q: %w", addr, err)
	}
	return "tcp", address, nil
}

// JoinAddr formats a net network/address pair back into the scheme SplitAddr
// parses — what listeners report after binding (e.g. a ":0" TCP listen).
func JoinAddr(network, address string) string {
	if network == "unix" {
		return "unix:" + address
	}
	return "tcp:" + address
}

// Dial connects to a transport address ("unix:/path", "tcp:host:port" or
// bare "host:port") with the given timeout.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	return net.DialTimeout(network, address, timeout)
}

// Listen binds a listener on a transport address. For TCP a ":0" port is
// resolved by the kernel; the effective address is Addr(ln).
func Listen(addr string) (net.Listener, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	return net.Listen(network, address)
}

// Addr formats a listener's bound address in the scheme Dial accepts.
func Addr(ln net.Listener) string {
	return JoinAddr(ln.Addr().Network(), ln.Addr().String())
}

// Backoff returns the delay before reconnect attempt n (0-based):
// exponential from 50 ms, capped at 2 s. Deterministic, so reconnect tests
// and the chaos harness stay reproducible.
func Backoff(attempt int) time.Duration {
	d := 50 * time.Millisecond
	for i := 0; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}
