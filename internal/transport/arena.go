package transport

import "math/bits"

// Arena owns everything a connection owns, for the connections that share
// it: the byte buffers — reassembled stream prefixes, send-stream data, packet
// and datagram scratch — and the Conn structs themselves, with the capacity
// they have grown (sent-packet records and their frame arrays, the
// retransmit, observation and RTT-sample lists, the stream maps and stream
// records, the spin controller and RTT estimator). A long scan's memory is
// therefore bounded by its live connections rather than by the connections
// it has ever made, and in steady state a connection allocates for what it
// sends and keeps, not for existing. Like the connections it serves the arena
// is single-threaded: one owner (a scan worker) creates it, hands it to every
// connection via Config.Arena, and those connections must all be driven from
// that owner's goroutine.
//
// Buffers are reusable the moment Conn.Release returns them. A released Conn
// is not: timer callbacks that captured it may still run (a server's response
// chunks, a redirect hop's draining peer) and must find a closed connection,
// not a stranger's live one. It waits in quarantine until the owner calls
// Drained — a promise that nothing scheduled before the call still holds a
// released connection, which an owner can make when its event loop is empty.
// Nothing is checked where callbacks fire; an owner that never calls Drained
// recycles buffers only.
//
// A nil *Arena is valid and pools nothing: get returns nil, so the append
// that follows allocates from the heap, put drops the buffer for the
// collector, and every connection is a new Conn. Connections therefore run
// one code path with or without an arena.
type Arena struct {
	// free[k] holds buffers whose capacity is at least 1<<(arenaMinShift+k).
	free [arenaClasses][][]byte
	// conns are released connections ready for reuse; quarantine holds those
	// released since the last Drained call.
	conns, quarantine []*Conn
	// poison makes misuse loud: a returned buffer is overwritten, so a use
	// after release reads garbage instead of plausible stale bytes, returning
	// one twice panics, and so does SendStream, Receive or a Poll that would
	// send on a released connection. On in race builds (the repository's
	// checked builds) and in this package's tests.
	poison bool
}

const (
	// arenaMinShift is the smallest size class, 2 KiB: one datagram or packet
	// payload (MaxDatagramSize) fits with room to spare.
	arenaMinShift = 11
	// arenaMaxShift is the largest size class, 2 MiB: above anything a
	// budgeted connection reassembles. Larger buffers are not pooled.
	arenaMaxShift = 21
	arenaClasses  = arenaMaxShift - arenaMinShift + 1

	poisonByte = 0xdb
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{poison: raceEnabled} }

// get returns an empty buffer with room for at least n bytes: a pooled one
// of n's size class if there is one, a fresh one of the class size otherwise.
// On a nil arena it returns nil.
func (a *Arena) get(n int) []byte {
	if a == nil {
		return nil
	}
	shift := max(bits.Len(uint(max(n, 1)-1)), arenaMinShift)
	if shift > arenaMaxShift {
		return make([]byte, 0, n)
	}
	class := &a.free[shift-arenaMinShift]
	if k := len(*class); k > 0 {
		b := (*class)[k-1]
		*class = (*class)[:k-1]
		return b
	}
	return make([]byte, 0, 1<<shift)
}

// put returns a buffer to the pool. The caller must hold no other reference
// to it. Buffers outside the pooled size range are left to the collector.
func (a *Arena) put(b []byte) {
	if a == nil || cap(b) < 1<<arenaMinShift || cap(b) >= 2<<arenaMaxShift {
		return
	}
	b = b[:cap(b)]
	class := &a.free[bits.Len(uint(cap(b)))-1-arenaMinShift]
	if a.poison {
		for _, held := range *class {
			if &held[:1][0] == &b[0] {
				panic("transport: buffer returned to its arena twice")
			}
		}
		for i := range b {
			b[i] = poisonByte
		}
	}
	*class = append(*class, b[:0])
}

// Pooled returns the number of buffers currently held for reuse. In a
// steady state it stops growing; tests of bounded memory assert that.
func (a *Arena) Pooled() int {
	n := 0
	for _, class := range a.free {
		n += len(class)
	}
	return n
}

// PooledConns returns the number of released connections held, reusable or
// still quarantined. Like Pooled it stops growing in a steady state: it is
// bounded by the connections released between two Drained calls.
func (a *Arena) PooledConns() int { return len(a.conns) + len(a.quarantine) }

// conn returns a released connection for newConn to reset, or nil when there
// is none (always on a nil arena).
func (a *Arena) conn() *Conn {
	if a == nil || len(a.conns) == 0 {
		return nil
	}
	n := len(a.conns) - 1
	c := a.conns[n]
	a.conns[n] = nil
	a.conns = a.conns[:n]
	return c
}

// retire quarantines a connection that has just been released.
func (a *Arena) retire(c *Conn) {
	if a != nil {
		a.quarantine = append(a.quarantine, c)
	}
}

// Drained makes every connection released so far reusable. The caller
// promises that no callback, timer or list still refers to one of them — the
// emulated engine calls it with its event loop drained, between two domains.
func (a *Arena) Drained() {
	a.conns = append(a.conns, a.quarantine...)
	clear(a.quarantine)
	a.quarantine = a.quarantine[:0]
}

// bufs is one connection's handle on its arena: buffers it outgrows are
// retired rather than returned at once, because frames in flight alias
// send-stream data and callers hold StreamRecv results. Release returns
// them with everything else.
type bufs struct {
	arena   *Arena
	retired [][]byte
}

// append appends data to buf. When buf must grow and there is an arena, it
// moves to a pooled buffer of the needed size class and retires the old one;
// with no arena the built-in append grows it on the heap.
func (m *bufs) append(buf, data []byte) []byte {
	if need := len(buf) + len(data); need > cap(buf) {
		if nb := m.arena.get(need); nb != nil {
			nb = append(nb, buf...)
			if cap(buf) > 0 {
				m.retired = append(m.retired, buf)
			}
			buf = nb
		}
	}
	return append(buf, data...)
}

// releaseRetired returns the outgrown buffers to the arena.
func (m *bufs) releaseRetired() {
	for i, b := range m.retired {
		m.arena.put(b)
		m.retired[i] = nil
	}
	m.retired = m.retired[:0]
}
