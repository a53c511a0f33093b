package squic

import (
	"cmp"
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/rtt"
	"tango/internal/segment"
	"tango/internal/snet"
)

// PacketConn is the datagram substrate a Conn runs on. snet.Conn implements
// it; tests may supply in-memory fakes.
type PacketConn interface {
	WriteTo(payload []byte, dst addr.UDPAddr, path *segment.Path) error
	ReadFrom() (*snet.Datagram, error)
	LocalAddr() addr.UDPAddr
	SetReadDeadline(t time.Time) error
	Close() error
}

// Config parameterizes connections. The zero value is usable after
// withDefaults; Clock is required.
type Config struct {
	// Clock drives all timers (virtual in experiments).
	Clock netsim.Clock
	// Pool is the client's trust anchor for server identities.
	Pool *CertPool
	// Identity is the server's identity (server side only).
	Identity *Identity
	// HandshakeTimeout aborts Dial if the handshake does not complete.
	HandshakeTimeout time.Duration
	// StreamWindow is the per-stream flow-control window in bytes.
	StreamWindow uint64
	// WriteBuffer bounds per-stream bytes buffered ahead of packetization.
	WriteBuffer int
	// InitialCwnd is the initial congestion window in bytes.
	InitialCwnd int
	// MaxPacketSize caps datagram payloads when the path MTU is unknown.
	MaxPacketSize int
}

// DefaultHandshakeTimeout applies when Config.HandshakeTimeout is zero.
const DefaultHandshakeTimeout = 10 * time.Second

func (cfg *Config) withDefaults() *Config {
	out := *cfg
	if out.Clock == nil {
		out.Clock = netsim.RealClock{}
	}
	if out.HandshakeTimeout == 0 {
		out.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if out.StreamWindow == 0 {
		out.StreamWindow = 1 << 20
	}
	if out.WriteBuffer == 0 {
		out.WriteBuffer = 1 << 20
	}
	if out.InitialCwnd == 0 {
		out.InitialCwnd = 256 << 10
	}
	if out.MaxPacketSize == 0 {
		out.MaxPacketSize = 1200
	}
	return &out
}

// Connection-level errors.
var (
	ErrConnClosed       = errors.New("squic: connection closed")
	ErrHandshakeTimeout = errors.New("squic: handshake timeout")
)

// Conn is one squic connection.
type Conn struct {
	cfg       *Config
	clock     netsim.Clock
	pconn     PacketConn
	ownsPconn bool
	isClient  bool
	connID    uint64
	// serverName is the name the client requested (SNI equivalent).
	serverName string
	// onClose detaches server conns from their listener.
	onClose func()
	// closeHooks are subscriber close notifications (OnClose), run after
	// teardown outside the connection lock. Telemetry planes use them to
	// untrack a remote when its serving connection dies.
	closeHooks []func()

	mu       sync.Mutex
	readable *sync.Cond // stream readers
	writable *sync.Cond // stream writers
	hsCond   *sync.Cond // Dial waiting for handshake
	acCond   *sync.Cond // AcceptStream

	remote addr.UDPAddr
	path   *segment.Path
	// mirrorPath is the freshest reverse path observed from the peer's own
	// traffic (server side): the reversed path of the last packet received.
	// c.path follows it packet by packet — the seed's mirroring behavior —
	// unless a steered reply path has been installed (SetReplyPath), in
	// which case mirroring keeps updating mirrorPath only.
	mirrorPath  *segment.Path
	steered     bool
	keys        *sessionKeys
	established bool
	confirmed   bool // server: saw a valid 1-RTT from the client
	closed      bool
	closeErr    error

	// streams holds the open streams in ascending id order, the order
	// packetization serves them in.
	streams      []*Stream
	nextStreamID uint64
	acceptQ      []*Stream
	// retiredPeer tracks finished peer-initiated streams (stored as id>>1
	// so consecutive same-parity ids coalesce into ranges), fencing late
	// retransmissions from resurrecting retired streams into acceptQ. Its
	// size is bounded by the gaps between retired streams — i.e. by the
	// number of concurrently-open peer streams — even when an idle stream
	// stays open indefinitely on a pooled connection.
	retiredPeer rangeSet

	// Client handshake state.
	ephPriv    *ecdh.PrivateKey
	initialBuf []byte
	hsRetrans  func() bool
	hsTimeout  func() bool

	// Server handshake state.
	helloBuf []byte

	// Send/reliability state.
	nextPN       uint64
	queued       []frame
	sent         sentLedger
	inFlight     int
	cwnd         int
	largestAcked int64
	recoveryEnd  uint64 // loss events before this pn don't re-halve cwnd
	rtt          rtt.Estimator
	// rttObs/rttBatchObs observe accepted RTT samples — the passive-telemetry
	// tap. Samples are coalesced in the pendingRTT inline buffer under mu
	// (overflow overwrites the newest slot: an ack burst's samples are a
	// redundant signal, and the tap must never allocate per packet) and
	// flushed to the observer strictly outside the lock: observers reach into
	// monitor/selector/dialer locks, and those components take c.mu (Err,
	// Path) under their own locks — an in-lock callback would invert the
	// order and deadlock. When both observers are set the batch observer
	// wins; per-sample delivery is the compatibility shape.
	rttObs      func(time.Duration)
	rttBatchObs func([]time.Duration)
	pendingRTT  [8]time.Duration
	pendingRTTN int
	// rttScratch is the flush-side buffer, claimed under mu and returned
	// after delivery, so the steady-state flush path allocates nothing.
	rttScratch []time.Duration
	ptoCancel  func() bool
	// ptoDeadline is the logical PTO expiry. Acks push it forward WITHOUT
	// re-creating the timer (per-ack timer churn dominated the pooled-conn
	// hot path); a timer that fires before the deadline simply re-arms for
	// the remainder.
	ptoDeadline time.Time
	ptoBackoff  uint

	// Receive state.
	recvd      rangeSet
	ackPending bool
}

func newConn(pconn PacketConn, cfg *Config, isClient bool) *Conn {
	c := &Conn{
		cfg:          cfg,
		clock:        cfg.Clock,
		pconn:        pconn,
		isClient:     isClient,
		cwnd:         cfg.InitialCwnd,
		largestAcked: -1,
	}
	if isClient {
		c.nextStreamID = 0
	} else {
		c.nextStreamID = 1
	}
	c.readable = sync.NewCond(&c.mu)
	c.writable = sync.NewCond(&c.mu)
	c.hsCond = sync.NewCond(&c.mu)
	c.acCond = sync.NewCond(&c.mu)
	return c
}

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() net.Addr { return c.pconn.LocalAddr() }

// RemoteAddr returns the remote endpoint.
func (c *Conn) RemoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// Path returns the forwarding path currently in use.
func (c *Conn) Path() *segment.Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.path
}

// MirrorPath returns the freshest reverse path observed from the peer's own
// traffic — on a server connection, the reversed path of the last packet the
// client sent. It keeps tracking the client even while a steered reply path
// is installed; for client connections it equals Path.
func (c *Conn) MirrorPath() *segment.Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mirrorPath != nil {
		return c.mirrorPath
	}
	return c.path
}

// SetReplyPath steers the connection's outgoing packets over path instead of
// mirroring the peer's last-used path — the server half of reverse-path
// steering. A nil path reverts to mirroring (the safety valve): the send
// path snaps back to the freshest mirrored reply path and follows the client
// again. The path must lead to the connection's remote; the caller (the
// telemetry plane) owns that invariant.
func (c *Conn) SetReplyPath(path *segment.Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if path == nil {
		c.steered = false
		if c.mirrorPath != nil {
			c.path = c.mirrorPath
		}
		return
	}
	c.steered = true
	c.path = path
}

// PinPath fixes the connection's outgoing packets to path, disabling the
// default mirror-following (a connection normally re-homes its sends onto
// the reverse of whatever path the peer's packets last rode, so a steering
// peer drags it along). A striped transfer pins each connection to its
// link-disjoint path — the disjointness IS the point, so following the
// server's reply-path choices would silently collapse the spread. Pinning
// shares the steering mechanism: PinPath(nil) reverts to mirror-following.
func (c *Conn) PinPath(path *segment.Path) { c.SetReplyPath(path) }

// OnClose registers f to run once the connection has torn down, after the
// terminal error is set, outside the connection lock. Hooks run in
// registration order; on an already-closed connection f runs immediately.
func (c *Conn) OnClose(f func()) {
	c.mu.Lock()
	if !c.closed {
		c.closeHooks = append(c.closeHooks, f)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	f()
}

// Err returns the connection's terminal error: nil while the connection is
// alive, the teardown cause once it has closed. Connection pools use it to
// detect dead entries without consuming a stream.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		return nil
	}
	return c.closeErrLocked()
}

// OpenStream opens a locally-initiated bidirectional stream.
func (c *Conn) OpenStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, c.closeErrLocked()
	}
	id := c.nextStreamID
	c.nextStreamID += 2
	s := newStream(c, id)
	c.insertStreamLocked(s)
	return s, nil
}

// AcceptStream blocks until the peer opens a stream or the connection
// closes.
func (c *Conn) AcceptStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.acceptQ) == 0 && !c.closed {
		c.acCond.Wait()
	}
	if len(c.acceptQ) > 0 {
		s := c.acceptQ[0]
		c.acceptQ = c.acceptQ[1:]
		return s, nil
	}
	return nil, c.closeErrLocked()
}

func (c *Conn) closeErrLocked() error {
	if c.closeErr != nil {
		return c.closeErr
	}
	return ErrConnClosed
}

// Close tears the connection down, notifying the peer.
func (c *Conn) Close() error {
	c.teardown(0, "closed by application", ErrConnClosed, true)
	return nil
}

// teardown closes the connection. If notify is set and keys exist, a CLOSE
// frame is sent best-effort.
func (c *Conn) teardown(code uint64, reason string, cause error, notify bool) {
	c.teardownIf(nil, code, reason, cause, notify)
}

// teardownIf is teardown gated on a guard evaluated under the connection
// lock, atomically with the closed check. Timeout and cancellation watchers
// use it so their decision ("still not established/confirmed?") cannot race
// a handshake completing between check and act — a plain check-then-teardown
// could kill a connection the dialer just returned to its caller.
func (c *Conn) teardownIf(guard func() bool, code uint64, reason string, cause error, notify bool) {
	c.mu.Lock()
	if c.closed || (guard != nil && !guard()) {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = cause
	if notify && c.keys != nil {
		c.sendPacketLocked([]frame{&closeFrame{code: code, reason: reason}}, false)
	}
	if c.ptoCancel != nil {
		c.ptoCancel()
	}
	if c.hsRetrans != nil {
		c.hsRetrans()
	}
	if c.hsTimeout != nil {
		c.hsTimeout()
	}
	for _, s := range c.streams {
		s.failLocked(cause)
	}
	c.readable.Broadcast()
	c.writable.Broadcast()
	c.hsCond.Broadcast()
	c.acCond.Broadcast()
	onClose := c.onClose
	hooks := c.closeHooks
	c.closeHooks = nil
	c.mu.Unlock()
	if c.ownsPconn {
		c.pconn.Close()
	}
	if onClose != nil {
		onClose()
	}
	for _, f := range hooks {
		f()
	}
}

// handlerConn is the synchronous-dispatch capability of snet sockets; when
// available, squic processes packets inside the delivery context, which
// keeps virtual-time experiments exact.
type handlerConn interface {
	SetHandler(func(*snet.Datagram))
}

// startReceiving wires packet delivery: synchronous handler mode when the
// PacketConn supports it, a reader goroutine otherwise.
func (c *Conn) startReceiving() {
	if hc, ok := c.pconn.(handlerConn); ok {
		hc.SetHandler(c.handleDatagram)
		return
	}
	go c.readLoop()
}

// readLoop pulls datagrams from a dedicated PacketConn (fallback mode).
func (c *Conn) readLoop() {
	for {
		dg, err := c.pconn.ReadFrom()
		if err != nil {
			c.teardown(1, "transport closed", fmt.Errorf("%w: %v", ErrConnClosed, err), false)
			return
		}
		c.handleDatagram(dg)
	}
}

// handleDatagram processes one received datagram (client path; the server
// listener routes to conn.handleOneRTT/handleInitial directly).
func (c *Conn) handleDatagram(dg *snet.Datagram) {
	hdr, body, err := parseHeader(dg.Payload)
	if err != nil || hdr.connID != c.connID {
		return
	}
	switch hdr.ptype {
	case ptHello:
		c.handleHello(body)
	case ptOneRTT:
		c.handleOneRTT(hdr, body, dg)
	}
}

// --- client handshake ---

// dial starts the client handshake; the caller must hold no locks. A
// cancellation of ctx before the handshake completes tears the connection
// down with ctx's error as the cause; after completion it is ignored.
func (c *Conn) dial(ctx context.Context, remote addr.UDPAddr, path *segment.Path, serverName string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eph, err := newEphemeral()
	if err != nil {
		return err
	}
	var id [8]byte
	if _, err := rand.Read(id[:]); err != nil {
		return err
	}
	c.mu.Lock()
	c.ephPriv = eph
	c.connID = binary.BigEndian.Uint64(id[:])
	c.remote = remote
	c.path = path
	c.serverName = serverName
	pkt := header{ptype: ptInitial, connID: c.connID, pktNum: 0}.append(nil)
	pkt = append(pkt, initialPayload(eph.PublicKey().Bytes(), serverName)...)
	c.initialBuf = pkt
	c.mu.Unlock()

	if done := ctx.Done(); done != nil {
		// Watch for caller-side cancellation for the duration of the
		// handshake. Like the handshake timeout, cancellation only kills a
		// connection that has not established yet: a cancel racing the
		// final handshake packet must not tear down a usable connection the
		// caller is about to receive.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				c.teardownIf(func() bool { return !c.established },
					2, "dial canceled", ctx.Err(), false)
			case <-stop:
			}
		}()
	}

	c.startReceiving()
	c.sendRaw(pkt)
	c.armHandshakeRetransmit(200 * time.Millisecond)
	c.mu.Lock()
	c.hsTimeout = c.clock.AfterFunc(c.cfg.HandshakeTimeout, func() {
		c.teardownIf(func() bool { return !c.established },
			2, "handshake timeout", ErrHandshakeTimeout, false)
	})
	for !c.established && !c.closed {
		c.hsCond.Wait()
	}
	closed := c.closed
	err = c.closeErrLocked()
	c.mu.Unlock()
	if closed {
		return err
	}
	return nil
}

func (c *Conn) armHandshakeRetransmit(interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.established || c.closed {
		return
	}
	c.hsRetrans = c.clock.AfterFunc(interval, func() {
		c.mu.Lock()
		done := c.established || c.closed
		buf := c.initialBuf
		c.mu.Unlock()
		if done {
			return
		}
		c.sendRaw(buf)
		c.armHandshakeRetransmit(interval * 2)
	})
}

// handleHello completes the client handshake.
func (c *Conn) handleHello(body []byte) {
	serverPub, sig, err := parseHelloPayload(body)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.established || c.closed || c.ephPriv == nil {
		c.mu.Unlock()
		return
	}
	transcript := handshakeTranscript(c.connID, c.ephPriv.PublicKey().Bytes(), serverPub, c.serverName)
	pool := c.cfg.Pool
	c.mu.Unlock()

	if pool == nil {
		c.teardown(3, "no trust pool", fmt.Errorf("squic: dialing without a certificate pool"), false)
		return
	}
	if err := pool.verify(c.serverName, transcript, sig); err != nil {
		c.teardown(3, "bad handshake signature", err, false)
		return
	}
	pubKey, err := ecdh.X25519().NewPublicKey(serverPub)
	if err != nil {
		return
	}
	c.mu.Lock()
	shared, err := c.ephPriv.ECDH(pubKey)
	if err != nil {
		c.mu.Unlock()
		return
	}
	keys, err := deriveKeys(shared, transcript)
	if err != nil {
		c.mu.Unlock()
		return
	}
	c.keys = keys
	c.established = true
	if c.hsRetrans != nil {
		c.hsRetrans()
		c.hsRetrans = nil
	}
	if c.hsTimeout != nil {
		c.hsTimeout()
		c.hsTimeout = nil
	}
	c.hsCond.Broadcast()
	// Confirm to the server with an immediate (possibly ACK-only) packet.
	c.queued = append(c.queued, pingFrame{})
	c.packetizeLocked()
	c.mu.Unlock()
}

// --- server handshake ---

// acceptInitial builds (or refreshes) a server conn from an Initial packet.
// It returns (conn, isNew).
func serverHandleInitial(pconn PacketConn, cfg *Config, hdr header, body []byte, dg *snet.Datagram, existing *Conn) (*Conn, bool) {
	if existing != nil {
		// Duplicate Initial: the Hello was lost; resend it.
		existing.mu.Lock()
		hello := existing.helloBuf
		path := existing.path
		remote := existing.remote
		existing.mu.Unlock()
		if hello != nil {
			pconn.WriteTo(hello, remote, path)
		}
		return existing, false
	}
	clientPub, serverName, err := parseInitialPayload(body)
	if err != nil || cfg.Identity == nil {
		return nil, false
	}
	eph, err := newEphemeral()
	if err != nil {
		return nil, false
	}
	pubKey, err := ecdh.X25519().NewPublicKey(clientPub)
	if err != nil {
		return nil, false
	}
	shared, err := eph.ECDH(pubKey)
	if err != nil {
		return nil, false
	}
	transcript := handshakeTranscript(hdr.connID, clientPub, eph.PublicKey().Bytes(), serverName)
	keys, err := deriveKeys(shared, transcript)
	if err != nil {
		return nil, false
	}
	sig := cfg.Identity.sign(transcript)

	c := newConn(pconn, cfg, false)
	c.connID = hdr.connID
	c.remote = dg.Src
	c.path = dg.ReplyPath
	c.keys = keys
	c.established = true
	c.serverName = serverName
	hello := header{ptype: ptHello, connID: hdr.connID, pktNum: 0}.append(nil)
	hello = append(hello, helloPayload(eph.PublicKey().Bytes(), sig)...)
	c.helloBuf = hello
	c.sendRaw(hello)
	return c, true
}

// armConfirmTimeout tears a server connection down if the client never
// confirms the handshake with a valid 1-RTT packet. This is the fate of an
// abandoned Initial: a raced dial's canceled loser (or a crashed client)
// reaches us, we answer with a Hello, and nothing ever comes back. Without
// the timeout every such handshake would park a zombie connection in the
// listener — and a goroutine in whatever accept loop serves it — forever.
func (c *Conn) armConfirmTimeout() {
	c.clock.AfterFunc(c.cfg.HandshakeTimeout, func() {
		c.teardownIf(func() bool { return !c.confirmed },
			2, "handshake never confirmed", ErrHandshakeTimeout, false)
	})
}

// --- packet receive path ---

// handleOneRTT decrypts and processes an application packet, then flushes
// any RTT samples the embedded acks produced to the observer.
func (c *Conn) handleOneRTT(hdr header, body []byte, dg *snet.Datagram) {
	c.processOneRTT(hdr, body, dg)
	c.flushRTTSamples()
}

func (c *Conn) processOneRTT(hdr header, body []byte, dg *snet.Datagram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keys == nil || c.closed {
		return
	}
	opener := c.keys.serverSeal
	if !c.isClient {
		opener = c.keys.clientSeal
	}
	aad := header{ptype: ptOneRTT, connID: hdr.connID, pktNum: hdr.pktNum}.append(nil)
	plain, err := opener.Open(nil, packetNonce(hdr.pktNum), body, aad)
	if err != nil {
		return
	}
	frames, err := parseFrames(plain)
	if err != nil {
		c.mu.Unlock()
		c.teardown(4, "malformed frames", err, true)
		c.mu.Lock()
		return
	}
	if c.recvd.contains(hdr.pktNum) {
		return // duplicate
	}
	c.recvd.add(hdr.pktNum)
	if !c.isClient {
		// Track the freshest return path and confirm the handshake. With a
		// steered reply path installed, the mirror keeps following the
		// client (so reverting to mirroring is always possible) but no
		// longer drives the send path. A reply path equal hop for hop to
		// the mirrored one leaves that object in place, keeping its memoized
		// fingerprint and wire template.
		if rp := dg.ReplyPath; rp != nil {
			if c.mirrorPath == nil || !c.mirrorPath.SameHops(rp) {
				c.mirrorPath = rp
			}
			if !c.steered {
				c.path = c.mirrorPath
			}
		}
		c.remote = dg.Src
		if !c.confirmed {
			c.confirmed = true
			c.queued = append(c.queued, handshakeDoneFrame{})
		}
	}
	for _, f := range frames {
		if c.closed {
			return
		}
		if f.retransmittable() {
			c.ackPending = true
		}
		switch f := f.(type) {
		case *streamFrame:
			c.handleStreamFrameLocked(f)
		case *ackFrame:
			c.handleAckLocked(f)
		case *maxStreamDataFrame:
			if s := c.streamLocked(f.id); s != nil && f.max > s.maxSend {
				s.maxSend = f.max
				c.writable.Broadcast()
			}
		case *closeFrame:
			cause := fmt.Errorf("%w: peer closed (code %d: %s)", ErrConnClosed, f.code, f.reason)
			c.mu.Unlock()
			c.teardown(f.code, "", cause, false)
			c.mu.Lock()
			return
		case pingFrame, handshakeDoneFrame:
			// ACK-eliciting only.
		}
	}
	c.packetizeLocked()
}

func (c *Conn) handleStreamFrameLocked(f *streamFrame) {
	s := c.streamLocked(f.id)
	if s == nil {
		peerInitiated := (f.id%2 == 0) != c.isClient
		if !peerInitiated {
			return // stale frame for a stream we opened and retired
		}
		if c.retiredPeer.contains(f.id >> 1) {
			return // late retransmission for a retired peer stream
		}
		s = newStream(c, f.id)
		c.insertStreamLocked(s)
		c.acceptQ = append(c.acceptQ, s)
		c.acCond.Broadcast()
	}
	if err := s.handleFrameLocked(f); err != nil {
		c.mu.Unlock()
		c.teardown(5, "flow control violation", err, true)
		c.mu.Lock()
		return
	}
	c.retireStreamLocked(s)
}

// streamLocked returns the open stream with the given id, or nil.
func (c *Conn) streamLocked(id uint64) *Stream {
	if i, ok := c.streamIndexLocked(id); ok {
		return c.streams[i]
	}
	return nil
}

func (c *Conn) streamIndexLocked(id uint64) (int, bool) {
	return slices.BinarySearchFunc(c.streams, id, func(s *Stream, id uint64) int { return cmp.Compare(s.id, id) })
}

func (c *Conn) insertStreamLocked(s *Stream) {
	i, _ := c.streamIndexLocked(s.id)
	c.streams = slices.Insert(c.streams, i, s)
}

// retireStreamLocked drops a fully-finished stream from the open set and
// reports whether it did, so a long-lived (pooled) connection does not
// accumulate per-stream state and packetization stays proportional to the
// ACTIVE stream count. Reads of already-buffered data keep working: they
// never touch the set.
func (c *Conn) retireStreamLocked(s *Stream) bool {
	if !s.doneLocked() {
		return false
	}
	if i, ok := c.streamIndexLocked(s.id); ok {
		c.streams = slices.Delete(c.streams, i, i+1)
	}
	// Only peer ids need fencing: stale frames for local ids are already
	// ignored.
	if peerInitiated := (s.id%2 == 0) != c.isClient; peerInitiated {
		c.retiredPeer.add(s.id >> 1)
	}
	return true
}

// --- reliability ---

func (c *Conn) handleAckLocked(f *ackFrame) {
	now := c.clock.Now()
	// The peer acks its full receive history, so the ranges span the
	// connection's lifetime; the ledger visits only the ranges overlapping
	// its window, in packet-number order.
	newlyAcked := false
	for sp := range c.sent.acked(f) {
		newlyAcked = true
		c.sent.settle(sp)
		c.inFlight -= sp.size
		if int64(sp.pn) > c.largestAcked {
			c.largestAcked = int64(sp.pn)
			c.sampleRTTLocked(now.Sub(sp.sentAt))
		}
		// Slow-start growth, capped.
		if c.cwnd < 4<<20 {
			c.cwnd += sp.size
		}
	}
	if !newlyAcked {
		return
	}
	c.ptoBackoff = 0
	// Packet-threshold loss detection.
	for sp := range c.sent.lost(c.largestAcked) {
		c.queued = append(c.queued, sp.frames...)
		c.sent.settle(sp)
		c.inFlight -= sp.size
		if sp.pn >= c.recoveryEnd {
			c.cwnd = maxInt(c.cwnd/2, 2*c.cfg.MaxPacketSize)
			c.recoveryEnd = c.nextPN
		}
	}
	c.sent.trim()
	c.armPTOLocked()
	c.packetizeLocked()
}

// MinRTTSample floors every ingested RTT sample, so RTTStats/OnRTTSample
// never report a trafficked connection with "no" round-trip estimate.
const MinRTTSample = rtt.MinSample

func (c *Conn) sampleRTTLocked(sample time.Duration) {
	sample = c.rtt.Observe(sample)
	if c.rttObs != nil || c.rttBatchObs != nil {
		if c.pendingRTTN < len(c.pendingRTT) {
			c.pendingRTT[c.pendingRTTN] = sample
			c.pendingRTTN++
		} else {
			// Coalesce: keep the buffer's older samples, overwrite the
			// newest slot — the observer still sees the freshest estimate
			// and the tap stays allocation-free under any burst.
			c.pendingRTT[len(c.pendingRTT)-1] = sample
		}
	}
}

// RTTStats exports the connection's live round-trip estimator: the smoothed
// RTT, its mean deviation, and how many ack samples produced them. Zero
// samples means no estimate yet. Telemetry planes read this from pooled
// connections as a zero-cost alternative to active probing.
func (c *Conn) RTTStats() (srtt, rttvar time.Duration, samples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rtt.SRTT, c.rtt.RTTVar, c.rtt.Samples
}

// OnRTTSample installs obs as the connection's RTT observer: it is invoked
// once per accepted ack RTT sample (floored at MinRTTSample), outside the
// connection lock, in packet-processing order. One observer at a time; nil
// uninstalls. The observer must not block — it runs on the packet delivery
// path.
func (c *Conn) OnRTTSample(obs func(rtt time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttObs = obs
}

// OnRTTSampleBatch installs obs as the connection's BATCHED RTT observer:
// one call per processed packet delivers every sample its acks produced
// (coalesced to the newest few under extreme bursts), outside the
// connection lock. Takes precedence over OnRTTSample when both are set.
// The slice is reused between flushes — the observer must not retain it.
// One observer at a time; nil uninstalls.
func (c *Conn) OnRTTSampleBatch(obs func(rtts []time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttBatchObs = obs
}

// flushRTTSamples delivers buffered RTT samples to the observer outside the
// connection lock (see rttObs). The scratch buffer is claimed under the
// lock and returned after delivery; a concurrent flush (several packets in
// flight through delivery) simply allocates its own.
func (c *Conn) flushRTTSamples() {
	c.mu.Lock()
	n := c.pendingRTTN
	obs, batchObs := c.rttObs, c.rttBatchObs
	if n == 0 || (obs == nil && batchObs == nil) {
		c.pendingRTTN = 0
		c.mu.Unlock()
		return
	}
	buf := c.rttScratch
	c.rttScratch = nil
	if cap(buf) < n {
		buf = make([]time.Duration, n)
	}
	buf = buf[:n]
	copy(buf, c.pendingRTT[:n])
	c.pendingRTTN = 0
	c.mu.Unlock()
	if batchObs != nil {
		batchObs(buf)
	} else {
		for _, rtt := range buf {
			obs(rtt)
		}
	}
	c.mu.Lock()
	if c.rttScratch == nil {
		c.rttScratch = buf
	}
	c.mu.Unlock()
}

// PTO backoff bounds: the exponential doubles at most maxPTOBackoff times
// and the resulting timeout is clamped at maxPTO. ptoBackoff increments on
// every PTO fire; uncapped, ~60 consecutive fires on a dead connection shift
// the base past the int64 range of time.Duration, and the negative/zero
// timeout re-arms immediately — a hot retransmit spin.
const (
	maxPTOBackoff = 10
	maxPTO        = time.Minute
)

func (c *Conn) ptoLocked() time.Duration {
	base := 500 * time.Millisecond
	if c.rtt.SRTT > 0 {
		base = c.rtt.SRTT + 4*c.rtt.RTTVar + time.Millisecond
	}
	shift := c.ptoBackoff
	if shift > maxPTOBackoff {
		shift = maxPTOBackoff
	}
	pto := base << shift
	if pto <= 0 || pto > maxPTO {
		pto = maxPTO
	}
	return pto
}

func (c *Conn) armPTOLocked() {
	if c.sent.live == 0 || c.closed {
		if c.ptoCancel != nil {
			c.ptoCancel()
			c.ptoCancel = nil
		}
		c.ptoDeadline = time.Time{}
		return
	}
	// Push the logical deadline; create a timer only if none is pending. A
	// timer that fires before the (acks-extended) deadline re-arms itself
	// for the remainder in onPTO, so the common ack path never touches the
	// clock's timer heap.
	c.ptoDeadline = c.clock.Now().Add(c.ptoLocked())
	if c.ptoCancel == nil {
		c.ptoCancel = c.clock.AfterFunc(c.ptoLocked(), c.onPTO)
	}
}

// onPTO retransmits everything unacked (probe + recovery in one step).
func (c *Conn) onPTO() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ptoCancel = nil // the timer that fired is spent
	if c.closed || c.sent.live == 0 {
		return
	}
	if remaining := c.ptoDeadline.Sub(c.clock.Now()); remaining > 0 {
		// Acks moved the deadline since this timer was created: not a
		// timeout, just the lazy re-arm catching up.
		c.ptoCancel = c.clock.AfterFunc(remaining, c.onPTO)
		return
	}
	if c.ptoBackoff < maxPTOBackoff {
		c.ptoBackoff++
	}
	for sp := range c.sent.all() {
		c.queued = append(c.queued, sp.frames...)
		c.sent.settle(sp)
		c.inFlight -= sp.size
	}
	c.sent.trim()
	c.packetizeLocked()
}

// --- packet send path ---

// queueFrameLocked enqueues a control frame.
func (c *Conn) queueFrameLocked(f frame) { c.queued = append(c.queued, f) }

// scheduleSendLocked flushes pending data; named for symmetry with async
// designs, it packetizes synchronously.
func (c *Conn) scheduleSendLocked() { c.packetizeLocked() }

// maxFramePayloadLocked is the frame budget per packet for the current path.
func (c *Conn) maxFramePayloadLocked() int {
	budget := snet.MaxPayload(c.path) - headerLen - aeadOverhead
	if m := c.cfg.MaxPacketSize; budget > m {
		budget = m
	}
	if budget < 256 {
		budget = 256
	}
	return budget
}

// packetizeLocked drains acks, control frames, and stream data into as many
// packets as congestion control allows.
func (c *Conn) packetizeLocked() {
	if c.closed || !c.established || c.keys == nil {
		return
	}
	maxPayload := c.maxFramePayloadLocked()
	for {
		var frames []frame
		size := 0
		ackEliciting := false
		if c.ackPending {
			af := &ackFrame{ranges: c.recvd.ranges()}
			frames = append(frames, af)
			size += frameSize(af)
			c.ackPending = false
		}
		for len(c.queued) > 0 {
			f := c.queued[0]
			fs := frameSize(f)
			if size+fs > maxPayload {
				if len(frames) > 0 {
					break
				}
				// A lone over-budget frame is a requeued stream frame sized
				// for a previous path with a bigger MTU budget: split it so
				// the packet fits the path the connection rides NOW.
				if sf, ok := f.(*streamFrame); ok {
					if head, tail := splitStreamFrame(sf, maxPayload-size); head != nil {
						c.queued[0] = tail
						frames = append(frames, head)
						size += frameSize(head)
						ackEliciting = true
						break // the packet is full by construction
					}
				}
				// Non-stream frames are all small; fall through rather than
				// wedge the queue.
			}
			c.queued = c.queued[1:]
			frames = append(frames, f)
			size += fs
			if f.retransmittable() {
				ackEliciting = true
			}
		}
		if c.inFlight < c.cwnd {
			const streamOverhead = 32 // type, flags, 3 varints worst case
			for i := 0; i < len(c.streams); {
				s := c.streams[i]
				for s.sendableLocked() && size+streamOverhead < maxPayload && c.inFlight+size < c.cwnd {
					f := s.nextFrameLocked(maxPayload - size - streamOverhead)
					if f == nil {
						break
					}
					frames = append(frames, f)
					size += frameSize(f)
					ackEliciting = true
				}
				// The FIN may have just been packetized, completing the
				// stream's send side.
				if !c.retireStreamLocked(s) {
					i++
				}
			}
		}
		if len(frames) == 0 {
			return
		}
		c.sendPacketLocked(frames, ackEliciting)
	}
}

// sendPacketLocked seals and transmits one OneRTT packet.
func (c *Conn) sendPacketLocked(frames []frame, ackEliciting bool) {
	pn := c.nextPN
	c.nextPN++
	var payload []byte
	for _, f := range frames {
		payload = f.append(payload)
	}
	sealer := c.keys.clientSeal
	if !c.isClient {
		sealer = c.keys.serverSeal
	}
	hdr := header{ptype: ptOneRTT, connID: c.connID, pktNum: pn}
	aad := hdr.append(nil)
	sealed := sealer.Seal(nil, packetNonce(pn), payload, aad)
	buf := append(aad, sealed...)
	c.pconn.WriteTo(buf, c.remote, c.path)
	if ackEliciting {
		// The frames slice is built fresh per packet, so when everything in
		// it is retransmittable (the common data-packet case) it can be
		// retained as-is instead of filtered into a new slice.
		kept := frames
		for _, f := range frames {
			if !f.retransmittable() {
				kept = make([]frame, 0, len(frames)-1)
				for _, g := range frames {
					if g.retransmittable() {
						kept = append(kept, g)
					}
				}
				break
			}
		}
		c.sent.add(pn, kept, len(buf), c.clock.Now())
		c.inFlight += len(buf)
		if c.ptoCancel == nil {
			c.armPTOLocked()
		}
	}
}

// sendRaw transmits a plaintext handshake packet.
func (c *Conn) sendRaw(buf []byte) {
	c.mu.Lock()
	remote, path := c.remote, c.path
	c.mu.Unlock()
	c.pconn.WriteTo(buf, remote, path)
}

// rangeSet tracks received packet numbers as sorted disjoint ranges.
type rangeSet struct {
	rs []ackRange
}

func (r *rangeSet) contains(pn uint64) bool {
	for _, x := range r.rs {
		if pn >= x.lo && pn <= x.hi {
			return true
		}
	}
	return false
}

func (r *rangeSet) add(pn uint64) {
	for i := range r.rs {
		x := &r.rs[i]
		if pn >= x.lo && pn <= x.hi {
			return
		}
		if pn+1 == x.lo {
			x.lo = pn
			r.coalesce()
			return
		}
		if x.hi+1 == pn {
			x.hi = pn
			r.coalesce()
			return
		}
	}
	r.rs = append(r.rs, ackRange{lo: pn, hi: pn})
	sort.Slice(r.rs, func(i, j int) bool { return r.rs[i].lo < r.rs[j].lo })
}

func (r *rangeSet) coalesce() {
	sort.Slice(r.rs, func(i, j int) bool { return r.rs[i].lo < r.rs[j].lo })
	out := r.rs[:0]
	for _, x := range r.rs {
		if n := len(out); n > 0 && out[n-1].hi+1 >= x.lo {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	r.rs = out
}

// ranges returns the current ranges, capped to the most recent 32. The
// returned slice aliases the set: it is only valid until the next add —
// fine for ack frames, which are built and serialized under the same lock
// hold and never queued or retransmitted.
func (r *rangeSet) ranges() []ackRange {
	rs := r.rs
	if len(rs) > 32 {
		rs = rs[len(rs)-32:]
	}
	return rs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
