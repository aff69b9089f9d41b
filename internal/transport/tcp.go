package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// AddrBook maps node ids to listen addresses ("host:port").
type AddrBook map[amcast.NodeID]string

// maxFrame bounds a single wire frame (a large FlexCast history diff
// still fits comfortably).
const maxFrame = 16 << 20

// dialRetry is the backoff between reconnection attempts.
const dialRetry = 200 * time.Millisecond

// TCPNode is one process in a TCP deployment: it listens for inbound
// envelopes, maintains lazy persistent connections to peers, and feeds a
// handler from a single dispatcher goroutine (preserving the engine
// single-threaded contract). Frames are either single envelopes or batch
// frames (codec.BatchKind); the dispatcher hands the handler every
// envelope decoded since its previous call, frames concatenated in
// arrival order, in a buffer it reuses (see BatchHandler).
type TCPNode struct {
	id   amcast.NodeID
	book AddrBook
	ln   net.Listener

	mu      sync.Mutex
	conns   map[amcast.NodeID]*peerConn
	inbound map[net.Conn]struct{}
	closed  bool

	// in is envelope-bounded (see envQueue): inbound buffering is the
	// same whatever the batch size, and a saturated dispatcher pushes
	// backpressure into the kernel socket buffers.
	in *envQueue
	wg sync.WaitGroup
}

type peerConn struct {
	mu   sync.Mutex // serializes frame writes
	conn net.Conn
	w    *bufio.Writer
}

// NewTCPBatchNode starts listening on the node's address from the book
// and dispatches inbound batches to handler; the node runtime
// (internal/runtime) attaches this way.
func NewTCPBatchNode(id amcast.NodeID, book AddrBook, handler BatchHandler) (*TCPNode, error) {
	ln, err := listen(book, id)
	if err != nil {
		return nil, err
	}
	return newTCPNodeOn(id, book, ln, handler), nil
}

// listen binds id's address from the book.
func listen(book AddrBook, id amcast.NodeID) (net.Listener, error) {
	addr, ok := book[id]
	if !ok {
		return nil, fmt.Errorf("transport: node %s not in address book", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ln, nil
}

// newTCPNodeOn starts a node on a listener it takes over and closes with
// itself.
func newTCPNodeOn(id amcast.NodeID, book AddrBook, ln net.Listener, handler BatchHandler) *TCPNode {
	n := &TCPNode{
		id:      id,
		book:    book,
		ln:      ln,
		conns:   make(map[amcast.NodeID]*peerConn),
		inbound: make(map[net.Conn]struct{}),
		in:      newEnvQueue(mailboxDepth),
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go func() {
		defer n.wg.Done()
		n.in.drain(handler)
	}()
	return n
}

// TCPMesh is the TCP transport behind the Attach seam (runtime.Net). It
// binds the listener of every node this process hosts when it is built —
// before any of them can dial a peer — and writes the bound addresses
// into its own copy of the book, so a deployment that picks its ports
// (":0") never releases one between choosing and serving it.
type TCPMesh struct {
	book AddrBook

	mu        sync.Mutex
	listeners map[amcast.NodeID]net.Listener // bound, not yet attached
	nodes     []*TCPNode
}

// ListenTCP binds the book's address of every local node; the book also
// names every remote peer they will send to.
func ListenTCP(book AddrBook, local ...amcast.NodeID) (*TCPMesh, error) {
	m := &TCPMesh{book: make(AddrBook, len(book)), listeners: make(map[amcast.NodeID]net.Listener, len(local))}
	for id, addr := range book {
		m.book[id] = addr
	}
	for _, id := range local {
		ln, err := listen(m.book, id)
		if err != nil {
			m.Close()
			return nil, err
		}
		m.listeners[id] = ln
		m.book[id] = ln.Addr().String()
	}
	return m, nil
}

// Addr returns the address id is bound to (a remote peer's: listed under).
func (m *TCPMesh) Addr(id amcast.NodeID) string { return m.book[id] }

// Attach starts serving local node id: inbound batches go to h, the
// returned function sends id's batches. A send to an unreachable peer is
// dropped after the node's one redial — the protocols assume reliable
// FIFO links, so that only happens while a deployment shuts down.
func (m *TCPMesh) Attach(id amcast.NodeID, h BatchHandler) (SendFunc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ln, ok := m.listeners[id]
	if !ok {
		return nil, fmt.Errorf("transport: node %s is not an unattached local node of this mesh", id)
	}
	delete(m.listeners, id)
	tn := newTCPNodeOn(id, m.book, ln, h)
	m.nodes = append(m.nodes, tn)
	return func(to amcast.NodeID, envs []amcast.Envelope) { _ = tn.SendBatch(to, envs) }, nil
}

// Close stops every attached node and releases the listeners never
// attached.
func (m *TCPMesh) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ln := range m.listeners {
		ln.Close()
	}
	for _, tn := range m.nodes {
		tn.Close()
	}
	m.listeners, m.nodes = nil, nil
}

// Addr returns the actual listen address (useful with ":0" test setups).
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	for {
		envs, err := readFrame(r)
		if err != nil {
			return
		}
		if !n.in.push(envs) {
			return // node closed
		}
	}
}

// Send transmits one envelope, dialing and caching the peer connection.
// It retries the dial once after a short backoff, then reports the
// error. The frame is encoded into a pooled buffer (internal/codec):
// writeFrame copies it into the connection's bufio writer before
// returning, so the frame recycles immediately — zero allocations per
// send in steady state.
func (n *TCPNode) Send(to amcast.NodeID, env amcast.Envelope) error {
	f := codec.GetFrame(codec.Size(env))
	f.B = codec.Append(f.B, env)
	err := n.sendPayload(to, f.B)
	f.Release()
	return err
}

// SendBatch transmits a batch as one wire frame, amortizing the frame
// header, the write syscall, the flush — and, via the pooled encode
// buffer, the frame allocation — across the batch. A single-envelope
// batch is sent as a plain envelope frame.
func (n *TCPNode) SendBatch(to amcast.NodeID, envs []amcast.Envelope) error {
	switch len(envs) {
	case 0:
		return nil
	case 1:
		return n.Send(to, envs[0])
	default:
		f := codec.GetFrame(codec.BatchSize(envs))
		f.B = codec.AppendBatch(f.B, envs)
		err := n.sendPayload(to, f.B)
		f.Release()
		return err
	}
}

func (n *TCPNode) sendPayload(to amcast.NodeID, payload []byte) error {
	pc, err := n.peer(to)
	if err != nil {
		return err
	}
	if err := pc.writeFrame(payload); err != nil {
		// Connection broke: drop it and retry once on a fresh dial.
		n.dropPeer(to, pc)
		time.Sleep(dialRetry)
		pc, err = n.peer(to)
		if err != nil {
			return err
		}
		if err := pc.writeFrame(payload); err != nil {
			n.dropPeer(to, pc)
			return err
		}
	}
	return nil
}

func (n *TCPNode) peer(to amcast.NodeID) (*peerConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("transport: node closed")
	}
	if pc, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return pc, nil
	}
	addr, ok := n.book[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: node %s not in address book", to)
	}
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	pc := &peerConn{conn: conn, w: bufio.NewWriter(conn)}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		conn.Close()
		return nil, errors.New("transport: node closed")
	}
	if existing, ok := n.conns[to]; ok {
		conn.Close() // lost the race; reuse the existing connection
		return existing, nil
	}
	n.conns[to] = pc
	return pc, nil
}

func (n *TCPNode) dropPeer(to amcast.NodeID, pc *peerConn) {
	n.mu.Lock()
	if cur, ok := n.conns[to]; ok && cur == pc {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	pc.conn.Close()
}

// Close shuts the node down: the listener, all connections, and the
// dispatcher.
func (n *TCPNode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := make([]*peerConn, 0, len(n.conns))
	for _, pc := range n.conns {
		conns = append(conns, pc)
	}
	n.conns = make(map[amcast.NodeID]*peerConn)
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()

	n.in.close()
	n.ln.Close()
	for _, pc := range conns {
		pc.conn.Close()
	}
	for _, c := range inbound {
		c.Close()
	}
	n.wg.Wait()
}

func (pc *peerConn) writeFrame(payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(payload)))
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, err := pc.w.Write(hdr[:hn]); err != nil {
		return err
	}
	if _, err := pc.w.Write(payload); err != nil {
		return err
	}
	return pc.w.Flush()
}

// readFrame reads one length-prefixed frame and decodes it as a batch or
// a single envelope, discriminated by the payload's first byte. The
// frame lands in a pooled buffer: control frames (no payload bytes —
// the decoder copies every other section) recycle it immediately, so
// the ACK/NOTIF/TS/REPLY traffic that dominates FlexCast's envelope
// count decodes without a per-frame allocation. Payload frames keep
// buffer ownership, exactly the allocation the unpooled path made.
func readFrame(r *bufio.Reader) ([]amcast.Envelope, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	f := codec.GetFrame(int(size))
	f.B = f.B[:size]
	if _, err := io.ReadFull(r, f.B); err != nil {
		f.Release()
		return nil, err
	}
	envs, err := codec.DecodeFrame(f.B)
	if err != nil {
		f.Release()
		return nil, err
	}
	switch {
	case !codec.FrameAliases(envs):
		f.Release()
	case cap(f.B) >= 2*len(f.B):
		// A payload frame in a pooled buffer at least twice its size:
		// pinning the buffer for the payloads' lifetime wastes more than
		// copying them out, so detach and recycle.
		codec.DetachPayloads(envs)
		f.Release()
	default:
		f.Disown()
	}
	return envs, nil
}
