package transport

import (
	"fmt"
	"time"

	"quicspin/internal/wire"
)

// Endpoint is a server-side connection demultiplexer: it accepts datagrams
// from many peers over one logical socket and routes them to per-connection
// state by connection ID, creating connections for new Initials. Like Conn
// it is sans-IO and single-threaded.
type Endpoint struct {
	// NewConnConfig returns the Config for an accepted connection; it is
	// invoked once per connection so servers can roll per-connection spin
	// policy dice. Must be non-nil.
	NewConnConfig func(peer string) Config

	// conns routes by the connection ID this server issued (short headers)
	// and by the client's original DCID (Initial/Handshake long headers).
	conns map[string]*entry
	order []*entry
	// Result lists of Poll and Conns and Receive's routing-header decode,
	// reused across calls.
	pollOut  []Outgoing
	connsOut []*Conn
	hdr      wire.Header
}

type entry struct {
	peer string
	conn *Conn
}

// NewEndpoint returns an Endpoint that builds accepted connections with
// newConnConfig.
func NewEndpoint(newConnConfig func(peer string) Config) *Endpoint {
	return &Endpoint{NewConnConfig: newConnConfig, conns: make(map[string]*entry)}
}

// Receive routes one datagram from peer (an opaque address string).
func (e *Endpoint) Receive(now time.Time, peer string, datagram []byte) error {
	if len(datagram) == 0 {
		return nil
	}
	var ent *entry
	if wire.IsLongHeader(datagram[0]) {
		hdr := &e.hdr
		if _, _, err := wire.ParseHeaderInto(hdr, datagram, 0, wire.NoAckedPacket); err != nil {
			return fmt.Errorf("endpoint: %w", err)
		}
		ent = e.conns[cidKey(hdr.DstConnID)]
		if ent == nil && hdr.Type == wire.TypeInitial {
			cfg := e.NewConnConfig(peer)
			conn := NewServerConn(cfg, hdr.DstConnID, hdr.SrcConnID, now)
			ent = &entry{peer: peer, conn: conn}
			// Route future long headers addressed to the ODCID and short
			// headers addressed to our issued SCID.
			e.conns[cidKey(hdr.DstConnID)] = ent
			e.conns[cidKey(conn.SCID())] = ent
			e.order = append(e.order, ent)
		}
	} else {
		// Short header: destination CID is one we issued, of known length.
		if len(datagram) < 1+DefaultConnIDLen {
			return fmt.Errorf("endpoint: runt short-header datagram")
		}
		dcid := wire.NewConnectionID(datagram[1 : 1+DefaultConnIDLen])
		ent = e.conns[cidKey(dcid)]
	}
	if ent == nil {
		return nil // stateless: drop unroutable packets
	}
	return ent.conn.Receive(now, datagram)
}

// Outgoing is a datagram with its destination peer.
type Outgoing struct {
	Peer string
	Data []byte
}

// Poll collects pending datagrams from every connection. Like Conn.Poll,
// the returned slice and the datagrams in it are valid until the next Poll
// on this endpoint.
func (e *Endpoint) Poll(now time.Time) []Outgoing {
	out := e.pollOut[:0]
	for _, ent := range e.order {
		for _, d := range ent.conn.Poll(now) {
			out = append(out, Outgoing{Peer: ent.peer, Data: d})
		}
	}
	e.pollOut = out
	return out
}

// Advance fires timers on every connection and drops closed ones, releasing
// each (see Conn.Release): whatever the application knew about a connection's
// streams lived on the connection and goes with it.
func (e *Endpoint) Advance(now time.Time) {
	live := e.order[:0]
	for _, ent := range e.order {
		ent.conn.Advance(now)
		if ent.conn.Closed() {
			delete(e.conns, cidKey(ent.conn.ODCID()))
			delete(e.conns, cidKey(ent.conn.SCID()))
			ent.conn.Release()
			continue
		}
		live = append(live, ent)
	}
	clear(e.order[len(live):])
	e.order = live
}

// NextTimeout returns the earliest timer deadline across connections.
func (e *Endpoint) NextTimeout() (time.Time, bool) {
	var t time.Time
	for _, ent := range e.order {
		if u, ok := ent.conn.NextTimeout(); ok && (t.IsZero() || u.Before(t)) {
			t = u
		}
	}
	return t, !t.IsZero()
}

// Stream is one completed peer stream handed out by Endpoint.AcceptStream:
// answer it with Conn.SendStream(ID, …).
type Stream struct {
	Peer string // the address the connection was accepted from
	Conn *Conn
	ID   uint64
	Data []byte // read-only; valid until the endpoint drops Conn
}

// AcceptStream returns the next completed peer stream of any live
// connection, connections in accept order and each connection's streams as
// Conn.AcceptStream orders them; every stream is returned once. A server's
// activity hook drains it: for st, ok := e.AcceptStream(); ok; ….
func (e *Endpoint) AcceptStream() (Stream, bool) {
	for _, ent := range e.order {
		if id, data, ok := ent.conn.AcceptStream(); ok {
			return Stream{Peer: ent.peer, Conn: ent.conn, ID: id, Data: data}, true
		}
	}
	return Stream{}, false
}

// Conns returns the live connections in accept order. The returned slice
// is valid until the next Conns call on this endpoint.
func (e *Endpoint) Conns() []*Conn {
	prev := e.connsOut
	out := prev[:0]
	for _, ent := range e.order {
		out = append(out, ent.conn)
	}
	if len(out) < len(prev) {
		clear(prev[len(out):]) // do not pin dropped connections
	}
	e.connsOut = out
	return out
}

func cidKey(id wire.ConnectionID) string { return string(id.Bytes()) }
