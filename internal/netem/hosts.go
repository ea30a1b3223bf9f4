package netem

import (
	"time"

	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

// ClientHost drives one client transport.Conn attached to a Network: it
// forwards incoming datagrams into the connection, flushes outgoing
// datagrams after every event, and keeps the connection's timers armed on
// the loop.
type ClientHost struct {
	net    *Network
	addr   string
	remote string
	conn   *transport.Conn
	timer  sim.Timer
	// flushFn, onTimer and onDatagram are the host's loop and network
	// callbacks, bound once at construction so the per-packet rearm/flush
	// cycle — and Reset — schedule and attach without allocating closures.
	flushFn    func(now time.Time)
	onTimer    func(now time.Time)
	onDatagram Handler
	// OnActivity, when set, runs after every connection event (receive or
	// timer) so application layers can queue stream data before the flush.
	OnActivity func(conn *transport.Conn, now time.Time)
	// ProcessDelay, when set, delays reception-triggered transmissions by
	// its return value, modelling endpoint turnaround latency (scheduler
	// quanta, stack processing). Real hosts never reflect a packet in zero
	// time; without this, spin-bit cycles and the stack's min_rtt collapse
	// onto the same value and the paper's grease filter misfires.
	ProcessDelay func() time.Duration
}

// NewClientHost attaches a client connection at addr talking to remote.
// Call Kick once after construction (and after queueing initial stream
// data) to transmit the first flight.
func NewClientHost(n *Network, addr, remote string, conn *transport.Conn) *ClientHost {
	h := &ClientHost{net: n}
	h.flushFn = h.flush
	h.onTimer = func(now time.Time) {
		h.conn.Advance(now)
		h.fire(now)
	}
	h.onDatagram = func(now time.Time, from string, data []byte) {
		if h.conn.Closed() {
			return
		}
		_ = h.conn.Receive(now, data) // malformed input only ends this conn
		h.fire(now)
	}
	h.Reset(addr, remote, conn)
	return h
}

// Reset makes a closed host (see Close) drive a new client connection at
// addr talking to remote, keeping OnActivity and ProcessDelay: one host serves
// a sequence of connections. The caller picks an addr it has not used
// before, or datagrams still in flight toward the previous connection reach
// this one.
func (h *ClientHost) Reset(addr, remote string, conn *transport.Conn) {
	h.addr, h.remote, h.conn = addr, remote, conn
	h.net.Attach(addr, h.onDatagram)
}

// Conn returns the driven connection.
func (h *ClientHost) Conn() *transport.Conn { return h.conn }

// Kick flushes pending datagrams and re-arms timers at the current virtual
// time.
func (h *ClientHost) Kick() { h.flush(h.net.loop.Now()) }

func (h *ClientHost) fire(now time.Time) {
	if h.OnActivity != nil {
		h.OnActivity(h.conn, now)
	}
	if h.ProcessDelay != nil {
		h.net.loop.After(h.ProcessDelay(), h.flushFn)
		return
	}
	h.flush(now)
}

func (h *ClientHost) flush(now time.Time) {
	for _, d := range h.conn.Poll(now) {
		h.net.Send(h.addr, h.remote, d)
	}
	h.rearm()
}

func (h *ClientHost) rearm() {
	h.timer.Stop()
	deadline, ok := h.conn.NextTimeout()
	if !ok {
		h.timer = sim.Timer{}
		return
	}
	h.timer = h.net.loop.At(deadline, h.onTimer)
}

// Close tears the host down: it detaches from the network and cancels
// pending timers (in-flight datagrams toward it are dropped).
func (h *ClientHost) Close() {
	h.timer.Stop()
	h.timer = sim.Timer{}
	h.net.Detach(h.addr)
}

// ServerHost drives a transport.Endpoint attached to a Network address.
type ServerHost struct {
	net     *Network
	addr    string
	ep      *transport.Endpoint
	timer   sim.Timer
	flushFn func(now time.Time)
	onTimer func(now time.Time)
	// OnActivity runs after each received datagram or timer event, letting
	// the application serve streams on every connection.
	OnActivity func(ep *transport.Endpoint, now time.Time)
	// ProcessDelay mirrors ClientHost.ProcessDelay for the server side.
	ProcessDelay func() time.Duration
}

// NewServerHost attaches ep at addr.
func NewServerHost(n *Network, addr string, ep *transport.Endpoint) *ServerHost {
	h := &ServerHost{net: n, addr: addr, ep: ep}
	h.flushFn = h.flush
	h.onTimer = func(now time.Time) {
		h.ep.Advance(now)
		h.fire(now)
	}
	n.Attach(addr, func(now time.Time, from string, data []byte) {
		_ = h.ep.Receive(now, from, data) // unroutable/malformed: dropped
		h.fire(now)
	})
	return h
}

// Endpoint returns the driven endpoint.
func (h *ServerHost) Endpoint() *transport.Endpoint { return h.ep }

// Kick flushes pending datagrams on all connections and re-arms timers.
// Call after queueing stream data from outside an activity callback (e.g.
// a delayed application response).
func (h *ServerHost) Kick() {
	h.flush(h.net.loop.Now())
}

func (h *ServerHost) fire(now time.Time) {
	if h.OnActivity != nil {
		h.OnActivity(h.ep, now)
	}
	if h.ProcessDelay != nil {
		h.net.loop.After(h.ProcessDelay(), h.flushFn)
		return
	}
	h.flush(now)
}

func (h *ServerHost) flush(now time.Time) {
	for _, out := range h.ep.Poll(now) {
		h.net.Send(h.addr, out.Peer, out.Data)
	}
	h.rearm()
}

func (h *ServerHost) rearm() {
	h.timer.Stop()
	deadline, ok := h.ep.NextTimeout()
	if !ok {
		h.timer = sim.Timer{}
		return
	}
	h.timer = h.net.loop.At(deadline, h.onTimer)
}

// Close detaches the server from the network.
func (h *ServerHost) Close() {
	h.timer.Stop()
	h.timer = sim.Timer{}
	h.net.Detach(h.addr)
}
