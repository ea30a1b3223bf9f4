package transport

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/rtt"
	"quicspin/internal/wire"
)

// Mock handshake transcript messages (see the package comment for the
// substitution rationale). Sizes roughly mimic a TLS 1.3 exchange so that
// handshake packets have realistic weight.
//
// The messages are read-only and shared: every connection's crypto send
// streams alias them (nothing appends to a crypto stream after it is set).
var (
	msgClientHello    = append([]byte("quicspin:CHLO:"), make([]byte, 300)...)
	msgServerHello    = append([]byte("quicspin:SHLO:"), make([]byte, 120)...)
	msgServerFinished = append([]byte("quicspin:SFIN:"), make([]byte, 700)...)
	msgClientFinished = append([]byte("quicspin:CFIN:"), make([]byte, 50)...)
)

// connState is the connection lifecycle state.
type connState int

const (
	stateHandshaking connState = iota
	stateActive
	stateClosing  // we sent CONNECTION_CLOSE
	stateDraining // peer sent CONNECTION_CLOSE
	stateClosed
)

// ErrConnectionClosed is returned by operations on a terminated connection.
var ErrConnectionClosed = errors.New("transport: connection closed")

// maxStreamOffset bounds the stream and crypto offsets a peer may declare.
// RFC 9000 allows offsets up to 2^62−1, but accepting them would let a
// hostile peer make the reassembly buffers track absurd ranges; nothing an
// honest peer of this scanner sends comes near 1 GiB.
const maxStreamOffset = 1 << 30

// TransportError mirrors a received CONNECTION_CLOSE.
type TransportError struct {
	Code   uint64
	Reason string
	Remote bool
}

// Error implements error.
func (e *TransportError) Error() string {
	side := "local"
	if e.Remote {
		side = "remote"
	}
	return fmt.Sprintf("transport: %s close code=%#x reason=%q", side, e.Code, e.Reason)
}

// Stats counts per-connection packet activity.
type Stats struct {
	PacketsSent     int
	PacketsReceived int
	ShortSent       int
	ShortReceived   int
	DatagramsSent   int
	BytesSent       int
	BytesReceived   int
	PacketsLost     int
	PTOCount        int
}

// Conn is one QUIC-lite connection endpoint. It is sans-IO and
// single-threaded: the caller serialises Receive/Poll/Advance calls and
// moves datagrams between peers. All methods take the current time
// explicitly so connections run equally under virtual and real clocks.
type Conn struct {
	cfg      Config
	isClient bool
	state    connState

	odcid   wire.ConnectionID // client-chosen original destination CID
	scid    wire.ConnectionID // our source CID (we route on this)
	dstCID  wire.ConnectionID // peer's CID we address packets to
	gotPeer bool              // learned the peer SCID

	send [numSpaces]sendState
	recv [numSpaces]recvState
	// retransmit holds frames from lost packets awaiting resend.
	retransmit  [numSpaces][]sendFrame
	spaceActive [numSpaces]bool
	probePing   [numSpaces]bool

	cryptoSend [numSpaces]sendStream
	cryptoRecv [numSpaces]recvStream

	streamsSend map[uint64]*sendStream
	streamsRecv map[uint64]*recvStream
	// freeSend and freeRecv hold the stream records of the connections this
	// struct served before (see reset).
	freeSend []*sendStream
	freeRecv []*recvStream

	handshakeComplete   bool
	handshakeConfirmed  bool
	handshakeDoneQueued bool
	sentCFIN            bool

	spin *core.Controller
	vec  core.VECState
	obs  []core.Observation

	estimator *rtt.Estimator

	lossTime      [numSpaces]time.Time
	ptoDeadline   time.Time
	ptoBackoff    int
	idleDeadline  time.Time
	drainDeadline time.Time

	closeFrame wire.ConnectionCloseFrame // valid in stateClosing
	closeSent  bool
	termErr    error

	// Resource-budget accounting (see Budget). budgetTripped latches the
	// first exceeded budget: the terminal error survives later closes and
	// all further received traffic is refused at the door.
	budgetTripped      bool
	malformedDatagrams int
	malformedFrames    int

	// mem is the connection's handle on Config.Arena: the stream buffers,
	// payloadScratch and dgramBufs come from it and go back in Release, as
	// does the connection itself; released latches that.
	mem      bufs
	released bool

	// Hot-path scratch. A campaign-scale scan pushes millions of packets
	// through Receive/Poll; everything per-packet that is not retained
	// (headers, parsed frames, packet payloads, datagram buffers) is
	// recycled on the connection instead of allocated per call.
	hdrScratch     wire.Header     // receive-side header decode
	arena          wire.FrameArena // receive-side frame decode
	sendHdr        wire.Header     // send-side header encode
	ackScratch     wire.AckFrame   // outgoing ACK frame (never retransmitted)
	payloadScratch []byte          // packet payload assembly
	framesScratch  []sendFrame     // framesFor result list
	idsScratch     []uint64        // sorted stream IDs in framesFor
	dgramBufs      [][]byte        // datagram buffers, rotated per Poll
	dgramUsed      int
	pollOut        [][]byte // Poll result list

	stats Stats
}

// NewClientConn creates the client side of a connection and queues the
// first flight. now seeds the idle timer.
func NewClientConn(cfg Config, now time.Time) *Conn {
	c := newConn(cfg, true)
	c.odcid = randomCID(cfg)
	c.dstCID = c.odcid
	c.scid = randomCID(cfg)
	c.cryptoSend[spaceInitial].data = msgClientHello
	c.idleDeadline = now.Add(cfg.idleTimeout())
	return c
}

// NewServerConn creates the server side for a connection whose first
// Initial packet carried the given client DCID (odcid) and SCID.
func NewServerConn(cfg Config, odcid, clientSCID wire.ConnectionID, now time.Time) *Conn {
	c := newConn(cfg, false)
	c.odcid = odcid
	c.scid = randomCID(cfg)
	c.dstCID = clientSCID
	c.gotPeer = true
	c.idleDeadline = now.Add(cfg.idleTimeout())
	return c
}

// newConn returns a connection in its initial state: a recycled one of
// cfg.Arena, reset in place, or a new one. Either way the random stream sees
// the same draws in the same order — the spin controller's dice here, then the
// caller's connection IDs.
func newConn(cfg Config, isClient bool) *Conn {
	if cfg.Rng == nil {
		panic("transport: Config.Rng is required")
	}
	c := cfg.Arena.conn()
	if c == nil {
		c = &Conn{
			estimator:   rtt.New(DefaultMaxAckDelay),
			streamsSend: make(map[uint64]*sendStream),
			streamsRecv: make(map[uint64]*recvStream),
			spin:        core.NewController(isClient, cfg.SpinPolicy, cfg.Rng),
		}
	} else {
		c.reset()
		c.estimator.Reset(DefaultMaxAckDelay)
		c.spin.Reset(isClient, cfg.SpinPolicy, cfg.Rng)
	}
	c.cfg = cfg
	c.mem.arena = cfg.Arena
	c.isClient = isClient
	c.spaceActive[spaceInitial] = true
	c.spaceActive[spaceHandshake] = true
	c.spaceActive[spaceAppData] = true
	return c
}

// reset returns a released connection to the zero state, keeping only
// capacity: the sent-packet records and their frame arrays, the emptied
// slices and maps of the send and receive paths, the stream records (moved
// to the freelists) and the estimator and spin controller, which newConn
// resets with the new connection's parameters. Whatever is not named here is
// zeroed, so a field added to Conn starts every connection empty;
// TestConnRecycledIsFresh holds the list of what is kept.
func (c *Conn) reset() {
	kept := Conn{
		streamsSend:   c.streamsSend,
		streamsRecv:   c.streamsRecv,
		freeSend:      c.freeSend,
		freeRecv:      c.freeRecv,
		spin:          c.spin,
		estimator:     c.estimator,
		obs:           c.obs[:0],
		mem:           bufs{retired: c.mem.retired[:0]},
		arena:         c.arena,
		ackScratch:    wire.AckFrame{Ranges: c.ackScratch.Ranges[:0]},
		framesScratch: c.framesScratch[:0],
		idsScratch:    c.idsScratch[:0],
		dgramBufs:     c.dgramBufs[:0],
		pollOut:       c.pollOut[:0],
	}
	for sp := range c.send {
		ss := &c.send[sp]
		ss.discard()
		kept.send[sp] = sendState{inFlight: ss.inFlight, free: ss.free}
		kept.recv[sp].ranges = c.recv[sp].ranges[:0]
		kept.retransmit[sp] = c.retransmit[sp][:0]
		kept.cryptoRecv[sp].segments = c.cryptoRecv[sp].segments[:0]
	}
	for _, s := range c.streamsSend {
		*s = sendStream{}
		kept.freeSend = append(kept.freeSend, s)
	}
	clear(kept.streamsSend)
	for _, r := range c.streamsRecv {
		*r = recvStream{segments: r.segments[:0]}
		kept.freeRecv = append(kept.freeRecv, r)
	}
	clear(kept.streamsRecv)
	*c = kept
}

func randomCID(cfg Config) wire.ConnectionID {
	var b [DefaultConnIDLen]byte
	cfg.Rng.Read(b[:])
	return wire.NewConnectionID(b[:])
}

// ODCID returns the original destination connection ID identifying the
// connection attempt (used for demultiplexing).
func (c *Conn) ODCID() wire.ConnectionID { return c.odcid }

// SCID returns the connection ID this endpoint issued; incoming
// short-header packets address it.
func (c *Conn) SCID() wire.ConnectionID { return c.scid }

// HandshakeComplete reports whether 1-RTT data can flow.
func (c *Conn) HandshakeComplete() bool { return c.handshakeComplete }

// HandshakeConfirmed reports RFC 9001 §4.1.2 confirmation.
func (c *Conn) HandshakeConfirmed() bool { return c.handshakeConfirmed }

// Closed reports whether the connection has fully terminated.
func (c *Conn) Closed() bool { return c.state == stateClosed }

// Terminating reports whether the connection is closing, draining or closed.
func (c *Conn) Terminating() bool { return c.state >= stateClosing }

// TermError returns the terminal error (nil for a clean local close or a
// still-open connection). It is never wrapped: a *BudgetError or
// *TransportError is returned as such, so callers may assert the type.
func (c *Conn) TermError() error { return c.termErr }

// RTT exposes the RFC 9002 estimator (the paper's baseline measurements).
func (c *Conn) RTT() *rtt.Estimator { return c.estimator }

// Observations returns the spin-bit observation series of received 1-RTT
// packets in arrival order (the client-side vantage point of the paper).
// The slice aliases internal state and must not be modified.
func (c *Conn) Observations() []core.Observation { return c.obs }

// Stats returns packet counters.
func (c *Conn) Stats() Stats { return c.stats }

// SendStream queues application data on a stream. Stream IDs follow RFC
// 9000 conventions (client-initiated bidirectional streams are 0, 4, 8, …)
// but the transport does not enforce them.
func (c *Conn) SendStream(id uint64, data []byte, fin bool) error {
	c.checkLive()
	if c.state >= stateClosing {
		return ErrConnectionClosed
	}
	s := c.streamsSend[id]
	if s == nil {
		if n := len(c.freeSend); n > 0 {
			s, c.freeSend = c.freeSend[n-1], c.freeSend[:n-1]
		} else {
			s = &sendStream{}
		}
		c.streamsSend[id] = s
	}
	if s.finSet {
		return fmt.Errorf("transport: write after FIN on stream %d", id)
	}
	s.data = c.mem.append(s.data, data)
	s.finSet = fin
	return nil
}

// StreamRecv returns the reassembled contiguous data of a stream and
// whether the stream is complete (FIN received and all bytes present). The
// slice aliases the connection's buffer: it must not be modified, and it is
// valid until the connection is released (Release, or an Endpoint dropping
// the closed connection).
func (c *Conn) StreamRecv(id uint64) ([]byte, bool) {
	r := c.streamsRecv[id]
	if r == nil {
		return nil, false
	}
	return r.delivered, r.complete()
}

// AcceptStream hands the application the next completed peer stream: every
// receive stream is returned exactly once, when its FIN and all bytes before
// it have arrived, lowest stream ID first. ok is false when nothing is left to
// accept — always so before the handshake completes and once the connection
// is closing, when a stream could no longer be answered. The mark lives on the
// stream itself, so it is released with the connection and no caller keeps a
// table of answered streams. data is the StreamRecv slice: read-only, valid
// until Release.
func (c *Conn) AcceptStream() (id uint64, data []byte, ok bool) {
	if !c.handshakeComplete || c.state >= stateClosing {
		return 0, nil, false
	}
	var next *recvStream
	for sid, r := range c.streamsRecv {
		if !r.accepted && r.complete() && (next == nil || sid < id) {
			id, next = sid, r
		}
	}
	if next == nil {
		return 0, nil, false
	}
	next.accepted = true
	return id, next.delivered, true
}

// Release ends the connection's use of its buffers and of itself: the
// stream, packet and datagram buffers go back to Config.Arena, and so does the
// Conn, to serve a later connection once the arena's owner calls
// Arena.Drained. Slices obtained from StreamRecv or Poll are invalid
// afterwards, and those from Observations and RTT().Samples() once the Conn
// is reused, so copy out what must survive first; until Drained the
// accessors (Terminating, TermError, Stats, …) still answer for this
// connection, which is what lets a timer callback that captured it find it
// closed. An Endpoint releases the connections it drops; a client
// connection's owner calls Release once it has closed the connection and
// sent the close. A connection that was never closed is closed silently.
// With no arena the buffers are simply left to the collector, and a released
// closing connection still runs out its drain timer, with no stream data
// left. Releasing twice is releasing once.
func (c *Conn) Release() {
	if c.released {
		return
	}
	c.released = true
	if c.state < stateClosing {
		c.state = stateClosed
	}
	m := &c.mem
	for sp := range c.cryptoRecv {
		c.cryptoRecv[sp].release(m)
	}
	for _, r := range c.streamsRecv {
		r.release(m)
	}
	for _, s := range c.streamsSend {
		m.arena.put(s.data)
		s.data = nil
	}
	m.arena.put(c.payloadScratch)
	c.payloadScratch = nil
	for i, b := range c.dgramBufs {
		m.arena.put(b)
		c.dgramBufs[i] = nil
	}
	c.dgramBufs = c.dgramBufs[:0]
	clear(c.pollOut)
	c.pollOut = c.pollOut[:0]
	m.releaseRetired()
	m.arena.retire(c)
}

// checkLive panics, under a poisoned arena, when a connection is used after
// its Release: the struct may already be another connection's.
func (c *Conn) checkLive() {
	if c.released && c.mem.arena != nil && c.mem.arena.poison {
		panic("transport: connection used after Release")
	}
}

// Close initiates a local close with an application error code.
func (c *Conn) Close(now time.Time, code uint64, reason string) {
	if c.state >= stateClosing {
		return
	}
	c.state = stateClosing
	c.closeFrame = wire.ConnectionCloseFrame{ErrorCode: code, Reason: reason}
	c.drainDeadline = now.Add(3 * c.estimator.PTO(true))
}

// --- receiving ---------------------------------------------------------

// Receive processes one incoming UDP datagram.
func (c *Conn) Receive(now time.Time, datagram []byte) error {
	c.checkLive()
	if c.state == stateClosed {
		return ErrConnectionClosed
	}
	if c.budgetTripped {
		return c.termErr
	}
	b := c.cfg.Budget
	c.stats.BytesReceived += len(datagram)
	if b.MaxRecvBytes > 0 && c.stats.BytesReceived > b.MaxRecvBytes {
		return c.tripBudget(now, BudgetRecvBytes, int64(b.MaxRecvBytes))
	}
	c.idleDeadline = now.Add(c.cfg.idleTimeout())
	rest := datagram
	for len(rest) > 0 {
		var largest uint64 = wire.NoAckedPacket
		if !wire.IsLongHeader(rest[0]) {
			if c.recv[spaceAppData].hasReceived {
				largest = c.recv[spaceAppData].largest
			}
		}
		hdr := &c.hdrScratch
		payload, consumed, err := wire.ParseHeaderInto(hdr, rest, c.scid.Len(), largest)
		if err != nil {
			c.malformedDatagrams++
			if b.MaxMalformed > 0 && c.malformedDatagrams > b.MaxMalformed {
				return c.tripBudget(now, BudgetMalformedDatagram, int64(b.MaxMalformed))
			}
			return fmt.Errorf("transport: parsing packet: %w", err)
		}
		rest = rest[consumed:]
		if err := c.handlePacket(now, hdr, payload); err != nil {
			return err
		}
		if c.budgetTripped {
			return c.termErr
		}
	}
	return nil
}

func spaceOf(h *wire.Header) (spaceID, bool) {
	if !h.IsLong {
		return spaceAppData, true
	}
	switch h.Type {
	case wire.TypeInitial:
		return spaceInitial, true
	case wire.TypeHandshake:
		return spaceHandshake, true
	default:
		return 0, false
	}
}

func (c *Conn) handlePacket(now time.Time, hdr *wire.Header, payload []byte) error {
	sp, ok := spaceOf(hdr)
	if !ok || !c.spaceActive[sp] {
		return nil // e.g. late Initial after key discard: ignore
	}
	if sp == spaceAppData && !c.handshakeComplete {
		// 1-RTT before handshake completion: buffer-free simplification —
		// drop; the peer retransmits.
		return nil
	}
	frames, err := c.arena.Parse(payload)
	if err != nil {
		c.malformedFrames++
		if b := c.cfg.Budget; b.MaxMalformed > 0 && c.malformedFrames > b.MaxMalformed {
			return c.tripBudget(now, BudgetMalformedFrame, int64(b.MaxMalformed))
		}
		return fmt.Errorf("transport: %s packet %d: %w", sp, hdr.PacketNumber, err)
	}
	c.stats.PacketsReceived++
	if b := c.cfg.Budget; b.MaxRecvPackets > 0 && c.stats.PacketsReceived > b.MaxRecvPackets {
		return c.tripBudget(now, BudgetRecvPackets, int64(b.MaxRecvPackets))
	}

	if hdr.IsLong && c.isClient && !c.gotPeer {
		// Learn the server's chosen SCID from its first packet.
		c.dstCID = hdr.SrcConnID
		c.gotPeer = true
	}

	rs := &c.recv[sp]
	isLargest := !rs.hasReceived || hdr.PacketNumber > rs.largest
	isNew := rs.record(hdr.PacketNumber, now)

	if !hdr.IsLong {
		c.stats.ShortReceived++
		ob := core.Observation{T: now, PN: hdr.PacketNumber, Spin: hdr.SpinBit, VEC: hdr.Reserved}
		c.obs = append(c.obs, ob)
		if isLargest {
			c.spin.OnReceive(hdr.PacketNumber, hdr.SpinBit)
			if c.cfg.EnableVEC {
				c.vec.OnReceive(hdr.SpinBit, hdr.Reserved)
			}
		}
	}

	if !isNew {
		return nil // duplicate: already acknowledged
	}

	elicits := false
	for _, f := range frames {
		if f.AckEliciting() {
			elicits = true
		}
		if err := c.handleFrame(now, sp, f); err != nil {
			return err
		}
	}
	if elicits {
		rs.unackedElicits++
		if sp != spaceAppData || rs.unackedElicits >= ackEveryN {
			rs.ackQueued = true
		} else if rs.ackDeadline.IsZero() {
			rs.ackDeadline = now.Add(DefaultMaxAckDelay)
		}
	}
	return nil
}

func (c *Conn) handleFrame(now time.Time, sp spaceID, f wire.Frame) error {
	switch fr := f.(type) {
	case wire.PaddingFrame, *wire.PaddingFrame, wire.PingFrame:
		return nil
	case *wire.AckFrame:
		c.handleAck(now, sp, fr)
		return nil
	case *wire.CryptoFrame:
		if fr.Offset > maxStreamOffset {
			return fmt.Errorf("transport: CRYPTO offset %d exceeds limit", fr.Offset)
		}
		c.cryptoRecv[sp].push(&c.mem, fr.Offset, fr.Data, false)
		c.advanceHandshake(now)
		return nil
	case *wire.StreamFrame:
		if fr.Offset > maxStreamOffset {
			return fmt.Errorf("transport: STREAM %d offset %d exceeds limit", fr.StreamID, fr.Offset)
		}
		r := c.streamsRecv[fr.StreamID]
		if r == nil {
			if n := len(c.freeRecv); n > 0 {
				r, c.freeRecv = c.freeRecv[n-1], c.freeRecv[:n-1]
			} else {
				r = &recvStream{}
			}
			c.streamsRecv[fr.StreamID] = r
		}
		r.push(&c.mem, fr.Offset, fr.Data, fr.Fin)
		return nil
	case wire.HandshakeDoneFrame:
		if c.isClient {
			c.confirmHandshake()
		}
		return nil
	case *wire.NewTokenFrame:
		return nil
	case *wire.ConnectionCloseFrame:
		if c.state < stateDraining {
			c.state = stateDraining
			c.termErr = &TransportError{Code: fr.ErrorCode, Reason: fr.Reason, Remote: true}
			c.drainDeadline = now.Add(3 * c.estimator.PTO(true))
		}
		return nil
	default:
		return fmt.Errorf("transport: unhandled frame %T", f)
	}
}

func (c *Conn) handleAck(now time.Time, sp spaceID, ack *wire.AckFrame) {
	ss := &c.send[sp]
	var newlyAckedLargest *sentPacket
	for _, p := range ss.inFlight {
		if p.declared || !ack.Acks(p.pn) {
			continue
		}
		p.declared = true
		if newlyAckedLargest == nil || p.pn > newlyAckedLargest.pn {
			newlyAckedLargest = p
		}
	}
	if newlyAckedLargest == nil {
		return
	}
	if !ss.hasAcked || ack.Largest() > ss.largestAcked {
		ss.largestAcked = ack.Largest()
		ss.hasAcked = true
	}
	if newlyAckedLargest.ackEliciting && newlyAckedLargest.pn == ack.Largest() {
		latest := now.Sub(newlyAckedLargest.sentAt)
		ackDelay := time.Duration(ack.DelayMicros) * time.Microsecond
		if sp != spaceAppData {
			ackDelay = 0
		}
		c.estimator.Update(latest, ackDelay, c.handshakeConfirmed)
	}
	c.detectLosses(now, sp)
	ss.compact()
	c.ptoBackoff = 0
	c.armPTO(now)
}

func (c *Conn) detectLosses(now time.Time, sp spaceID) {
	ss := &c.send[sp]
	if !ss.hasAcked {
		return
	}
	lossDelay := c.lossDelay()
	c.lossTime[sp] = time.Time{}
	for _, p := range ss.inFlight {
		if p.declared || p.pn > ss.largestAcked {
			continue
		}
		lostByReorder := ss.largestAcked >= p.pn+packetThreshold
		lostByTime := !p.sentAt.After(now.Add(-lossDelay))
		if lostByReorder || lostByTime {
			p.declared = true
			c.stats.PacketsLost++
			c.requeue(sp, p)
			continue
		}
		// Not yet lost: arm the loss timer for when it would be.
		t := p.sentAt.Add(lossDelay)
		if c.lossTime[sp].IsZero() || t.Before(c.lossTime[sp]) {
			c.lossTime[sp] = t
		}
	}
}

func (c *Conn) lossDelay() time.Duration {
	d := c.estimator.Latest()
	if s := c.estimator.Smoothed(); s > d {
		d = s
	}
	d = d * 9 / 8
	if d < rtt.Granularity {
		d = rtt.Granularity
	}
	return d
}

// requeue schedules a lost packet's retransmittable frames for resend.
func (c *Conn) requeue(sp spaceID, p *sentPacket) {
	c.retransmit[sp] = append(c.retransmit[sp], p.frames...)
}

// --- handshake ---------------------------------------------------------

func (c *Conn) advanceHandshake(now time.Time) {
	if c.isClient {
		if hasMsg(&c.cryptoRecv[spaceInitial], msgServerHello) &&
			hasMsg(&c.cryptoRecv[spaceHandshake], msgServerFinished) && !c.sentCFIN {
			c.cryptoSend[spaceHandshake].data = msgClientFinished
			c.sentCFIN = true
			c.handshakeComplete = true
			// Initial keys are discarded once handshake keys are in use.
			c.dropSpace(spaceInitial)
		}
		return
	}
	// Server.
	if hasMsg(&c.cryptoRecv[spaceInitial], msgClientHello) && len(c.cryptoSend[spaceInitial].data) == 0 && !c.handshakeComplete {
		if c.cryptoSend[spaceInitial].next == 0 {
			c.cryptoSend[spaceInitial].data = msgServerHello
			c.cryptoSend[spaceHandshake].data = msgServerFinished
		}
	}
	if hasMsg(&c.cryptoRecv[spaceHandshake], msgClientFinished) && !c.handshakeComplete {
		c.handshakeComplete = true
		c.confirmHandshake()
		c.handshakeDoneQueued = true
		c.dropSpace(spaceInitial)
		c.dropSpace(spaceHandshake)
	}
}

func (c *Conn) confirmHandshake() {
	if c.handshakeConfirmed {
		return
	}
	c.handshakeConfirmed = true
	if c.isClient {
		c.dropSpace(spaceHandshake)
	}
	if c.state == stateHandshaking {
		c.state = stateActive
	}
}

func (c *Conn) dropSpace(sp spaceID) {
	c.spaceActive[sp] = false
	clear(c.retransmit[sp])
	c.retransmit[sp] = c.retransmit[sp][:0]
	c.send[sp].discard()
	c.recv[sp].ackQueued = false
	c.lossTime[sp] = time.Time{}
}

func hasMsg(r *recvStream, msg []byte) bool {
	return len(r.delivered) >= len(msg)
}

// --- sending -----------------------------------------------------------

// Poll returns all datagrams ready to send at time now. Call it after every
// Receive/Advance and whenever application data was queued.
//
// The returned slice and the datagram buffers it holds are reused by the
// next Poll call on this connection: consume (send or copy) them before
// polling again.
func (c *Conn) Poll(now time.Time) [][]byte {
	if c.state == stateClosed || c.state == stateDraining || (c.state == stateClosing && c.closeSent) {
		return nil
	}
	// A driver may still poll a connection it has released (a closed netem
	// host's last scheduled flush does); only one with something to send is
	// misused.
	c.checkLive()
	out := c.pollOut[:0]
	c.dgramUsed = 0
	if c.state == stateClosing {
		c.closeSent = true
		out = append(out, c.buildCloseDatagram())
		c.pollOut = out
		return out
	}
	for len(out) < 64 {
		d := c.buildDatagram(now)
		if d == nil {
			break
		}
		c.stats.DatagramsSent++
		c.stats.BytesSent += len(d)
		out = append(out, d)
		c.idleDeadline = now.Add(c.cfg.idleTimeout())
	}
	c.pollOut = out
	return out
}

// dgramSlot returns datagram buffer idx of the per-connection pool, empty: a
// new slot takes its buffer from the arena.
func (c *Conn) dgramSlot(idx int) []byte {
	if idx == len(c.dgramBufs) {
		c.dgramBufs = append(c.dgramBufs, c.mem.arena.get(MaxDatagramSize))
	}
	return c.dgramBufs[idx][:0]
}

func (c *Conn) buildCloseDatagram() []byte {
	ss := &c.send[spaceAppData]
	hdr := &c.sendHdr
	*hdr = wire.Header{DstConnID: c.dstCID, PacketNumber: ss.nextPN}
	if c.handshakeComplete {
		hdr.SpinBit = c.spin.Next()
	}
	payload := c.closeFrame.Append(c.payloadBuf())
	buf, err := wire.AppendShortHeader(c.dgramSlot(0), hdr, payload, ss.largestAckedOrSentinel())
	if err != nil {
		panic(err)
	}
	c.payloadScratch = payload
	c.dgramBufs[0] = buf
	c.dgramUsed = 1
	ss.nextPN++
	c.stats.PacketsSent++
	return buf
}

func (c *Conn) buildDatagram(now time.Time) []byte {
	// Datagram buffers rotate through a per-connection pool: a slot is
	// claimed only if the datagram turns out non-empty, and keeps the
	// (possibly grown) buffer for the next Poll cycle.
	idx := c.dgramUsed
	buf := c.dgramSlot(idx)
	budget := MaxDatagramSize

	for _, sp := range [...]spaceID{spaceInitial, spaceHandshake} {
		if !c.spaceActive[sp] {
			continue
		}
		frames, elicits := c.framesFor(sp, now, budget-64)
		if len(frames) == 0 {
			continue
		}
		padTo := 0
		if sp == spaceInitial && c.isClient {
			// RFC 9000 §14.1: client datagrams containing Initial packets
			// must be at least 1200 bytes. Pad the Initial packet itself.
			padTo = MinInitialSize - len(buf)
		}
		start := len(buf)
		buf = c.encodeLong(buf, sp, frames, elicits, now, padTo)
		budget -= len(buf) - start
	}

	if c.spaceActive[spaceAppData] && c.canSendAppData() {
		frames, elicits := c.framesFor(spaceAppData, now, budget-40)
		if len(frames) > 0 {
			buf = c.encodeShort(buf, frames, elicits, now)
		}
	}

	if len(buf) == 0 {
		return nil
	}
	c.dgramUsed = idx + 1
	c.dgramBufs[idx] = buf
	return buf
}

// canSendAppData keeps the server from speaking 1-RTT before confirmation.
func (c *Conn) canSendAppData() bool {
	if c.isClient {
		return c.handshakeComplete
	}
	return c.handshakeConfirmed
}

// framesFor assembles the next packet's frames for a space. It consumes
// send state, so callers must transmit what it returns.
func (c *Conn) framesFor(sp spaceID, now time.Time, budget int) ([]sendFrame, bool) {
	if budget < 48 {
		return nil, false
	}
	// frames is scratch reused across packets: encode and recordSent consume
	// it before the next framesFor call, and recordSent copies out the
	// retransmittable (retained) frames.
	frames := c.framesScratch[:0]
	used := 0
	elicits := false

	rs := &c.recv[sp]
	wantAck := rs.ackQueued && len(rs.ranges) > 0

	// Retransmissions first; what does not fit moves to the queue's front.
	rt := c.retransmit[sp]
	n := 0
	for ; n < len(rt) && used < budget-48; n++ {
		frames = append(frames, rt[n])
		used += rt[n].size()
		elicits = true
	}
	if n > 0 {
		rest := copy(rt, rt[n:])
		clear(rt[rest:])
		c.retransmit[sp] = rt[:rest]
	}

	// Crypto data.
	for used < budget-48 {
		chunk, off, _, ok := c.cryptoSend[sp].pending(budget - 48 - used)
		if !ok || len(chunk) == 0 {
			break
		}
		frames = append(frames, sendFrame{kind: frameCrypto, offset: off, data: chunk})
		used += frames[len(frames)-1].size()
		elicits = true
	}

	if sp == spaceAppData && c.inFlightElicits() < DefaultMaxInFlight {
		if c.handshakeDoneQueued {
			c.handshakeDoneQueued = false
			frames = append(frames, sendFrame{kind: frameHandshakeDone})
			used++
			elicits = true
		}
		// Stream data in stream-ID order for determinism.
		ids := c.idsScratch[:0]
		for id := range c.streamsSend {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		c.idsScratch = ids
		for _, id := range ids {
			for used < budget-64 {
				chunk, off, fin, ok := c.streamsSend[id].pending(budget - 64 - used)
				if !ok {
					break
				}
				frames = append(frames, sendFrame{kind: frameStream, streamID: id, offset: off, data: chunk, fin: fin})
				used += frames[len(frames)-1].size()
				elicits = true
			}
		}
	}

	if c.probePing[sp] {
		c.probePing[sp] = false
		frames = append(frames, sendFrame{kind: framePing})
		used++
		elicits = true
	}

	if len(frames) == 0 && !wantAck {
		c.framesScratch = frames
		return nil, false
	}
	if len(rs.ranges) > 0 && (wantAck || elicits) {
		// The outgoing ACK is never retransmitted (recordSent skips it), so
		// one scratch frame per connection suffices; shift-prepend it.
		rs.ackFrameInto(&c.ackScratch, now)
		frames = append(frames, sendFrame{})
		copy(frames[1:], frames)
		frames[0] = sendFrame{kind: frameAck}
		rs.ackQueued = false
		rs.ackDeadline = time.Time{}
		rs.unackedElicits = 0
	}
	c.framesScratch = frames
	return frames, elicits
}

// inFlightElicits counts unacknowledged ack-eliciting 1-RTT packets.
func (c *Conn) inFlightElicits() int {
	n := 0
	for _, p := range c.send[spaceAppData].inFlight {
		if !p.declared && p.ackEliciting {
			n++
		}
	}
	return n
}

// size is the budget framesFor charges a retransmittable frame: an upper
// bound of its encoded size.
func (f *sendFrame) size() int {
	switch f.kind {
	case frameCrypto:
		return len(f.data) + 1 + 2*8
	case frameStream:
		return len(f.data) + 1 + 3*8
	default:
		return 8
	}
}

// appendFrames encodes a framesFor list onto a packet payload.
func (c *Conn) appendFrames(payload []byte, frames []sendFrame) []byte {
	for i := range frames {
		switch f := &frames[i]; f.kind {
		case frameAck:
			payload = c.ackScratch.Append(payload)
		case frameCrypto:
			fr := wire.CryptoFrame{Offset: f.offset, Data: f.data}
			payload = fr.Append(payload)
		case frameStream:
			fr := wire.StreamFrame{StreamID: f.streamID, Offset: f.offset, Data: f.data, Fin: f.fin}
			payload = fr.Append(payload)
		case frameHandshakeDone:
			payload = wire.HandshakeDoneFrame{}.Append(payload)
		case framePing:
			payload = wire.PingFrame{}.Append(payload)
		}
	}
	return payload
}

// payloadBuf returns the empty packet-payload scratch, taking it from the
// arena on first use.
func (c *Conn) payloadBuf() []byte {
	if c.payloadScratch == nil {
		c.payloadScratch = c.mem.arena.get(MaxDatagramSize)
	}
	return c.payloadScratch[:0]
}

// encodeLong appends one long-header packet to buf and returns the extended
// buffer.
func (c *Conn) encodeLong(buf []byte, sp spaceID, frames []sendFrame, elicits bool, now time.Time, padTo int) []byte {
	ss := &c.send[sp]
	typ := byte(wire.TypeInitial)
	if sp == spaceHandshake {
		typ = wire.TypeHandshake
	}
	hdr := &c.sendHdr
	*hdr = wire.Header{
		IsLong:       true,
		Type:         typ,
		Version:      wire.Version1,
		DstConnID:    c.dstCID,
		SrcConnID:    c.scid,
		PacketNumber: ss.nextPN,
	}
	payload := c.appendFrames(c.payloadBuf(), frames)
	if padTo > 0 {
		// Exact header size: first byte, version, both length-prefixed
		// connection IDs, the (empty) token length for Initials, the
		// payload-length varint, and the packet number.
		pnl := wire.PacketNumberLen(hdr.PacketNumber, ss.largestAckedOrSentinel())
		hdrSize := 1 + 4 + 1 + c.dstCID.Len() + 1 + c.scid.Len() + pnl
		if typ == wire.TypeInitial {
			hdrSize++ // zero-length token
		}
		// Iterate: padding changes the length varint's own size.
		for i := 0; i < 3; i++ {
			total := hdrSize + wire.VarintLen(uint64(pnl+len(payload))) + len(payload)
			if total >= padTo {
				break
			}
			payload = wire.PaddingFrame{N: padTo - total}.Append(payload)
		}
	}
	start := len(buf)
	buf, err := wire.AppendLongHeader(buf, hdr, payload, ss.largestAckedOrSentinel())
	if err != nil {
		panic(err) // our own headers are always valid
	}
	c.payloadScratch = payload
	c.recordSent(sp, ss, hdr, frames, elicits, now, len(buf)-start)
	return buf
}

// encodeShort appends one short-header packet to buf and returns the
// extended buffer.
func (c *Conn) encodeShort(buf []byte, frames []sendFrame, elicits bool, now time.Time) []byte {
	ss := &c.send[spaceAppData]
	hdr := &c.sendHdr
	*hdr = wire.Header{
		DstConnID:    c.dstCID,
		PacketNumber: ss.nextPN,
		SpinBit:      c.spin.Next(),
	}
	if c.cfg.EnableVEC && c.spin.Spinning() {
		hdr.Reserved = c.vec.Next(hdr.SpinBit)
	}
	payload := c.appendFrames(c.payloadBuf(), frames)
	start := len(buf)
	buf, err := wire.AppendShortHeader(buf, hdr, payload, ss.largestAckedOrSentinel())
	if err != nil {
		panic(err)
	}
	c.payloadScratch = payload
	c.stats.ShortSent++
	c.recordSent(spaceAppData, ss, hdr, frames, elicits, now, len(buf)-start)
	return buf
}

func (c *Conn) recordSent(sp spaceID, ss *sendState, hdr *wire.Header, frames []sendFrame, elicits bool, now time.Time, size int) {
	p := ss.take()
	retrans := p.frames[:0]
	for _, f := range frames {
		if f.kind != frameAck {
			retrans = append(retrans, f)
		}
	}
	*p = sentPacket{pn: ss.nextPN, sentAt: now, ackEliciting: elicits, size: size, frames: retrans}
	ss.inFlight = append(ss.inFlight, p)
	ss.nextPN++
	c.stats.PacketsSent++
	if elicits {
		c.armPTO(now)
	}
}

// --- timers ------------------------------------------------------------

func (c *Conn) armPTO(now time.Time) {
	var earliest time.Time
	for sp := spaceInitial; sp < numSpaces; sp++ {
		if !c.spaceActive[sp] {
			continue
		}
		if p := c.send[sp].oldestUnacked(); p != nil {
			if earliest.IsZero() || p.sentAt.Before(earliest) {
				earliest = p.sentAt
			}
		}
	}
	if earliest.IsZero() {
		c.ptoDeadline = time.Time{}
		return
	}
	pto := c.estimator.PTO(c.handshakeComplete) << uint(c.ptoBackoff)
	c.ptoDeadline = earliest.Add(pto)
	if c.ptoDeadline.Before(now) {
		c.ptoDeadline = now
	}
}

// NextTimeout returns the earliest time at which Advance must be called,
// and false if no timer is pending.
func (c *Conn) NextTimeout() (time.Time, bool) {
	if c.state == stateClosed {
		return time.Time{}, false
	}
	var t time.Time
	add := func(u time.Time) {
		if u.IsZero() {
			return
		}
		if t.IsZero() || u.Before(t) {
			t = u
		}
	}
	if c.state == stateClosing || c.state == stateDraining {
		add(c.drainDeadline)
		return t, !t.IsZero()
	}
	add(c.idleDeadline)
	add(c.ptoDeadline)
	for sp := spaceInitial; sp < numSpaces; sp++ {
		add(c.lossTime[sp])
		add(c.recv[sp].ackDeadline)
	}
	return t, !t.IsZero()
}

// Advance fires all timers with deadlines at or before now. Follow with
// Poll to transmit whatever the timers produced.
func (c *Conn) Advance(now time.Time) {
	if c.state == stateClosed {
		return
	}
	if c.state == stateClosing || c.state == stateDraining {
		if !c.drainDeadline.IsZero() && !now.Before(c.drainDeadline) {
			c.state = stateClosed
		}
		return
	}
	if !now.Before(c.idleDeadline) {
		c.state = stateClosed
		if c.termErr == nil {
			c.termErr = fmt.Errorf("transport: idle timeout after %v", c.cfg.idleTimeout())
		}
		return
	}
	for sp := spaceInitial; sp < numSpaces; sp++ {
		if !c.lossTime[sp].IsZero() && !now.Before(c.lossTime[sp]) {
			c.detectLosses(now, sp)
			c.send[sp].compact()
		}
		rs := &c.recv[sp]
		if !rs.ackDeadline.IsZero() && !now.Before(rs.ackDeadline) {
			rs.ackQueued = true
			rs.ackDeadline = time.Time{}
		}
	}
	if !c.ptoDeadline.IsZero() && !now.Before(c.ptoDeadline) {
		c.onPTO(now)
	}
}

func (c *Conn) onPTO(now time.Time) {
	c.stats.PTOCount++
	c.ptoBackoff++
	if c.ptoBackoff > 10 {
		// Give up: the peer is unreachable.
		c.state = stateClosed
		c.termErr = errors.New("transport: handshake/probe timeout")
		return
	}
	fired := false
	for sp := spaceInitial; sp < numSpaces; sp++ {
		if !c.spaceActive[sp] {
			continue
		}
		if p := c.send[sp].oldestUnacked(); p != nil {
			// Retransmit the oldest unacked packet's payload. Read the frame
			// count before compact recycles p into the sent-packet freelist.
			p.declared = true
			c.stats.PacketsLost++
			c.requeue(sp, p)
			hadFrames := len(p.frames) > 0
			c.send[sp].compact()
			if !hadFrames {
				c.probePing[sp] = true
			}
			fired = true
			break
		}
	}
	if !fired {
		c.probePing[spaceAppData] = true
	}
	c.armPTO(now)
}
