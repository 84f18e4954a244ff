package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// TCP framing errors.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds limit")
	ErrClosed        = errors.New("transport: transport closed")
)

// maxFrame bounds a single request or reply frame (16 MiB: a migration
// payload is small — Table I is ~1.3 KiB — but sealed app data may ride
// along).
const maxFrame = 16 << 20

// tcpEnvelope is the wire format for requests and replies.
type tcpEnvelope struct {
	From    string `json:"from,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	Error   string `json:"error,omitempty"`
}

// TCP exchange bounds. The send deadline accommodates handler-side
// simulated firmware latencies — a full 256-counter reseed at
// paper-scale costs is over a minute — while still bounding a hung peer.
const (
	dialTimeout = 5 * time.Second
	sendTimeout = 2 * time.Minute
)

// TCPTransport is a Messenger over real TCP sockets. Register starts a
// listener on the address (host:port); Send dials the target. Frames are
// 4-byte big-endian length-prefixed JSON envelopes.
//
// TCPTransport carries the same untrusted bytes as Network: all security
// comes from the attested channels layered above.
type TCPTransport struct {
	mu        sync.Mutex
	listeners map[Address]net.Listener
	wg        sync.WaitGroup
	closed    bool
}

var _ Messenger = (*TCPTransport)(nil)

// NewTCPTransport creates a TCP messenger.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		listeners: make(map[Address]net.Listener),
	}
}

// Register starts serving handler h on the TCP address addr.
func (t *TCPTransport) Register(addr Address, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, exists := t.listeners[addr]; exists {
		return fmt.Errorf("%w: %s", ErrAlreadyBound, addr)
	}
	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	t.listeners[addr] = ln
	t.wg.Add(1)
	go t.serve(ln, addr, h)
	return nil
}

// Unregister stops the listener serving addr. In-flight connections
// drain on their own; the address may be registered again afterwards.
func (t *TCPTransport) Unregister(addr Address) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ln, ok := t.listeners[addr]; ok {
		_ = ln.Close()
		delete(t.listeners, addr)
	}
}

// rebind re-keys a listener registered under `from` to the address `to`
// (the resolved port-0 bind address), so Unregister and BoundAddr work
// against the address peers actually dial.
func (t *TCPTransport) rebind(from, to Address) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ln, ok := t.listeners[from]; ok {
		delete(t.listeners, from)
		t.listeners[to] = ln
	}
}

// BoundAddr returns the actual listen address for addr (useful when
// registering with port 0).
func (t *TCPTransport) BoundAddr(addr Address) (Address, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ln, ok := t.listeners[addr]
	if !ok {
		return "", false
	}
	return Address(ln.Addr().String()), true
}

func (t *TCPTransport) serve(ln net.Listener, addr Address, h Handler) {
	defer t.wg.Done()
	var connWG sync.WaitGroup
	defer connWG.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			defer conn.Close()
			t.handleConn(conn, addr, h)
		}()
	}
}

func (t *TCPTransport) handleConn(conn net.Conn, addr Address, h Handler) {
	for {
		var req tcpEnvelope
		if err := readFrame(conn, &req); err != nil {
			return
		}
		// The trace envelope rides inside the framed payload bytes; strip
		// it here so handlers see only the protocol payload.
		tc, inner := obs.Extract(req.Payload)
		msg := Message{
			From:    Address(req.From),
			To:      addr,
			Kind:    req.Kind,
			Payload: inner,
			Trace:   tc,
		}
		reply, err := h(msg)
		resp := tcpEnvelope{Payload: reply}
		if err != nil {
			resp.Error = err.Error()
			resp.Payload = nil
		}
		if err := writeFrame(conn, &resp); err != nil {
			return
		}
	}
}

// Send dials the destination, performs one request/response, and closes.
// The whole exchange runs under a deadline: a peer that accepts the
// connection but never replies produces an error instead of wedging the
// caller forever (quorum broadcasts hold locks across Send, so a hung
// exchange would otherwise stall every operation behind them).
func (t *TCPTransport) Send(from, to Address, kind string, payload []byte) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", string(to), dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnknownEndpoint, to, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(sendTimeout))
	req := tcpEnvelope{From: string(from), Kind: kind, Payload: payload}
	if err := writeFrame(conn, &req); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	var resp tcpEnvelope
	if err := readFrame(conn, &resp); err != nil {
		return nil, fmt.Errorf("receive: %w", err)
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	return resp.Payload, nil
}

// Close stops all listeners and waits for connection goroutines to exit.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	t.closed = true
	for addr, ln := range t.listeners {
		_ = ln.Close()
		delete(t.listeners, addr)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshal frame: %w", err)
	}
	if len(body) > maxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
