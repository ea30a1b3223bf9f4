package transport

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/wire"
)

// link moves datagrams between a client and a server connection one flight
// at a time under a fixed pattern of loss and reordering, and keeps everything
// either side emitted.
type link struct {
	t              *testing.T
	client, server *Conn
	now            time.Time
	sent           [][]byte // every datagram polled, tagged 'c' or 's'
	toServer       int
	toClient       int
	// lastToClient is a copy of the last datagram the server emitted.
	lastToClient []byte
	// stopServer, when it reports true after the server has received a
	// flight, freezes the server: it is not polled again.
	stopServer func() bool
	frozen     bool
}

// newLink creates the client, lets it emit its first flight and builds the
// server connection from the Initial in it, as an Endpoint would.
func newLink(t *testing.T, clientCfg, serverCfg Config) *link {
	t.Helper()
	l := &link{t: t, now: time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)}
	l.client = NewClientConn(clientCfg, l.now)
	for _, dg := range l.client.Poll(l.now) {
		l.sent = append(l.sent, append([]byte{'c'}, dg...))
		if l.server == nil {
			var hdr wire.Header
			if _, _, err := wire.ParseHeaderInto(&hdr, dg, 0, wire.NoAckedPacket); err != nil {
				t.Fatalf("parsing the client's Initial: %v", err)
			}
			l.server = NewServerConn(serverCfg, hdr.DstConnID, hdr.SrcConnID, l.now)
		}
		_ = l.server.Receive(l.now, dg)
	}
	if l.server == nil {
		t.Fatal("the client emitted no Initial")
	}
	return l
}

// step advances 5 ms and moves one flight each way: every fourth client
// datagram and every fifth server datagram is lost, and the server's flight
// arrives in reverse order.
func (l *link) step() {
	l.now = l.now.Add(5 * time.Millisecond)
	l.client.Advance(l.now)
	l.server.Advance(l.now)
	for _, dg := range l.client.Poll(l.now) {
		l.sent = append(l.sent, append([]byte{'c'}, dg...))
		if l.toServer++; l.toServer%4 == 3 {
			continue
		}
		_ = l.server.Receive(l.now, dg)
	}
	if l.frozen = l.frozen || (l.stopServer != nil && l.stopServer()); l.frozen {
		return
	}
	out := l.server.Poll(l.now)
	for _, dg := range out {
		l.sent = append(l.sent, append([]byte{'s'}, dg...))
		l.lastToClient = append(l.lastToClient[:0], dg...)
	}
	for k := len(out) - 1; k >= 0; k-- {
		if l.toClient++; l.toClient%5 == 0 {
			continue
		}
		_ = l.client.Receive(l.now, out[k])
	}
}

// transcript is everything a scripted exchange lets out of its two
// connections.
type transcript struct {
	datagrams    [][]byte
	response     []byte
	observations [2][]core.Observation
	samples      [2][]time.Duration
	stats        [2]Stats
	terms        [2]string
}

// scriptedExchange runs one request/response exchange over a lossy link on
// arena and releases both connections. Every input — the random seed, the
// clock, the loss pattern, the payloads — is fixed, so two runs differ only
// in what the arena hands their connections.
func scriptedExchange(t *testing.T, arena *Arena) (transcript, [2]*Conn) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	l := newLink(t,
		Config{Rng: rng, Arena: arena, Budget: DefaultBudget(), EnableVEC: true},
		// A policy that rolls both of NewController's dice.
		Config{Rng: rng, Arena: arena, EnableVEC: true,
			SpinPolicy: core.Policy{Mode: core.ModeSpin, DisableEveryN: 2, DisabledMode: core.ModeGreasePerConn}})
	request := bytes.Repeat([]byte("q"), 3000)
	response := make([]byte, 30_000)
	rand.New(rand.NewSource(4)).Read(response)
	if err := l.client.SendStream(0, request, true); err != nil {
		t.Fatal(err)
	}
	if err := l.client.SendStream(4, []byte("second"), true); err != nil {
		t.Fatal(err)
	}
	var tr transcript
	for n := 0; n < 3000; n++ {
		l.step()
		if id, data, ok := l.server.AcceptStream(); ok && id == 0 {
			if !bytes.Equal(data, request) {
				t.Fatal("the request arrived corrupt")
			}
			_ = l.server.SendStream(0, response[:100], false)
			_ = l.server.SendStream(0, response[100:], true)
		}
		if data, done := l.client.StreamRecv(0); done {
			tr.response = append([]byte(nil), data...)
			break
		}
	}
	if !bytes.Equal(tr.response, response) {
		t.Fatalf("response incomplete or corrupt: %d of %d bytes", len(tr.response), len(response))
	}
	l.client.Close(l.now, 0, "done")
	for n := 0; n < 400 && !(l.client.Closed() && l.server.Closed()); n++ {
		l.step()
	}
	conns := [2]*Conn{l.client, l.server}
	for i, c := range conns {
		tr.observations[i] = append([]core.Observation(nil), c.Observations()...)
		tr.samples[i] = append([]time.Duration(nil), c.RTT().Samples()...)
		tr.stats[i] = c.Stats()
		if err := c.TermError(); err != nil {
			tr.terms[i] = err.Error()
		}
		c.Release()
	}
	tr.datagrams = l.sent
	return tr, conns
}

// dirtyPair leaves two connections on arena in the dirtiest state a
// connection can be released in — the client with a tripped budget, a pending
// CONNECTION_CLOSE and a terminal error, the server with lost frames queued
// for retransmission, both with half-received streams, in-flight packets and
// observations — and releases them.
func dirtyPair(t *testing.T, arena *Arena) [2]*Conn {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	l := newLink(t,
		Config{Rng: rng, Arena: arena, Budget: Budget{MaxRecvPackets: 40}, EnableVEC: true},
		Config{Rng: rng, Arena: arena, EnableVEC: true})
	_ = l.client.SendStream(0, bytes.Repeat([]byte("a"), 9000), true)
	_ = l.client.SendStream(4, bytes.Repeat([]byte("b"), 5000), false) // never finished
	answered := false
	l.stopServer = func() bool { return len(l.server.retransmit[spaceAppData]) > 0 }
	for n := 0; n < 3000 && !l.frozen; n++ {
		l.step()
		if !answered && l.server.HandshakeConfirmed() {
			answered = true
			_ = l.server.SendStream(0, make([]byte, 60_000), true)
		}
	}
	if len(l.server.retransmit[spaceAppData]) == 0 {
		t.Fatal("the server never queued a retransmission")
	}
	// A frame beyond a gap on each side: an out-of-order segment is held.
	gap := &wire.StreamFrame{StreamID: 8, Offset: 5000, Data: bytes.Repeat([]byte("g"), 700)}
	for _, c := range []*Conn{l.client, l.server} {
		if err := c.handleFrame(l.now, spaceAppData, gap); err != nil {
			t.Fatal(err)
		}
	}
	// The server is frozen as it is; its last datagram, replayed, runs the
	// client out of its packet budget.
	for n := 0; n < 100 && !l.client.budgetTripped; n++ {
		_ = l.client.Receive(l.now, l.lastToClient)
	}
	c, s := l.client, l.server
	switch {
	case !c.budgetTripped || c.termErr == nil || c.closeFrame.Reason == "" || c.state != stateClosing:
		t.Fatal("the client did not trip its budget")
	case len(c.obs) == 0 || len(s.obs) == 0 || len(c.estimator.Samples()) == 0:
		t.Fatal("no observations or RTT samples were taken")
	case len(s.send[spaceAppData].inFlight) == 0 || len(c.streamsRecv[8].segments) == 0 || len(s.streamsRecv[8].segments) == 0:
		t.Fatal("no packets in flight or no out-of-order segments held")
	case len(s.streamsSend) == 0 || len(c.streamsSend) != 2 || len(s.streamsRecv) < 2:
		t.Fatal("streams missing")
	}
	c.Release()
	s.Release()
	return [2]*Conn{c, s}
}

// retainedOnReset is the explicit list of what Conn.reset keeps: every other
// field of Conn, at any depth, must be zero after it. The value says how a
// kept field is checked.
var retainedOnReset = map[string]string{
	"send[].inFlight":       "empty",   // sent-packet list
	"send[].free":           "records", // sent-packet records …
	"send[].free[].frames":  "empty",   // … and their frame arrays
	"recv[].ranges":         "empty",
	"retransmit[]":          "empty",
	"cryptoRecv[].segments": "empty",
	"streamsSend":           "empty", // cleared map
	"streamsRecv":           "empty",
	"freeSend":              "records",
	"freeRecv":              "records",
	"freeRecv[].segments":   "empty",
	"spin":                  "reset by newConn", // core.Controller.Reset, rolling NewController's dice
	"estimator":             "reset by newConn", // rtt.Estimator.Reset
	"obs":                   "empty",
	"mem.retired":           "empty",
	"arena":                 "scratch", // receive-side decode storage, overwritten by every Parse
	"ackScratch.Ranges":     "empty",
	"framesScratch":         "empty",
	"idsScratch":            "empty",
	"dgramBufs":             "empty",
	"pollOut":               "empty",
}

// checkReset walks v, a (part of a) reset Conn at path, and reports every
// field that is neither zero nor retained as the list says.
func checkReset(t *testing.T, path string, v reflect.Value, seen map[string]bool) {
	if how, ok := retainedOnReset[path]; ok {
		seen[path] = true
		switch how {
		case "empty":
			if v.Len() != 0 {
				t.Errorf("%s: %d entries survive reset", path, v.Len())
			}
			if v.Kind() == reflect.Map && v.IsNil() {
				t.Errorf("%s: kept, but reset dropped it", path)
			}
		case "records":
			if v.Len() == 0 {
				t.Errorf("%s: no records kept (the dirty connection had some)", path)
			}
			for i := 0; i < v.Len(); i++ {
				checkReset(t, path+"[]", v.Index(i).Elem(), seen)
			}
		default:
			if v.Kind() == reflect.Pointer && v.IsNil() {
				t.Errorf("%s: kept, but reset dropped it", path)
			}
		}
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkReset(t, strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i), seen)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			checkReset(t, path+"[]", v.Index(i), seen)
		}
	default:
		if !v.IsZero() {
			t.Errorf("%s survives reset (%v): reset it, or add it to retainedOnReset", path, v)
		}
	}
}

// A recycled connection is a fresh one. (a) After reset every field of Conn
// is zero but for the listed capacity, so a field added without thought to
// reuse fails here by name. (b) The same scripted lossy exchange emits the
// same bytes, observations, samples and counters on new connections and on
// connections recycled from the dirtiest state one can be released in.
func TestConnRecycledIsFresh(t *testing.T) {
	t.Run("reset zeroes all but capacity", func(t *testing.T) {
		arena := &Arena{poison: true}
		dirtyPair(t, arena)
		arena.Drained()
		seen := map[string]bool{}
		for i := 0; i < 2; i++ {
			c := arena.conn()
			if c == nil {
				t.Fatal("the arena handed out no released connection")
			}
			c.reset()
			checkReset(t, "", reflect.ValueOf(c).Elem(), seen)
		}
		for path := range retainedOnReset {
			if !seen[path] {
				t.Errorf("retainedOnReset names %s, which the walk never reached", path)
			}
		}
	})
	t.Run("same exchange, same bytes", func(t *testing.T) {
		want, _ := scriptedExchange(t, &Arena{poison: true})
		if len(want.observations[0]) == 0 || want.stats[0].PacketsLost == 0 || want.stats[1].PacketsLost == 0 {
			t.Fatalf("the script exercises too little: %d observations, %d and %d packets lost",
				len(want.observations[0]), want.stats[0].PacketsLost, want.stats[1].PacketsLost)
		}
		arena := &Arena{poison: true}
		dirty := dirtyPair(t, arena)
		arena.Drained()
		got, conns := scriptedExchange(t, arena)
		if !(conns[0] == dirty[0] || conns[0] == dirty[1]) || !(conns[1] == dirty[0] || conns[1] == dirty[1]) {
			t.Fatal("the exchange did not run on the recycled connections")
		}
		if len(got.datagrams) != len(want.datagrams) {
			t.Fatalf("%d datagrams on recycled connections, %d on fresh ones", len(got.datagrams), len(want.datagrams))
		}
		for i := range want.datagrams {
			if !bytes.Equal(got.datagrams[i], want.datagrams[i]) {
				t.Fatalf("datagram %d of %d differs on recycled connections", i, len(want.datagrams))
			}
		}
		got.datagrams, want.datagrams = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recycled connections diverge from fresh ones:\n got %+v\nwant %+v", got.stats, want.stats)
		}
		// A third exchange, on the connections the second released.
		arena.Drained()
		again, _ := scriptedExchange(t, arena)
		again.datagrams = nil
		if !reflect.DeepEqual(again, want) {
			t.Errorf("the third use of a connection diverges from the first:\n got %+v\nwant %+v", again.stats, want.stats)
		}
	})
}

// Under a poisoned arena a released connection refuses further use; without
// an arena it behaves as a closed connection always has.
func TestReleasedConnIsPoisoned(t *testing.T) {
	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return
	}
	for _, arena := range []*Arena{nil, {poison: true}} {
		want := arena != nil
		released := func() *Conn {
			c := NewClientConn(Config{Rng: rand.New(rand.NewSource(1)), Arena: arena}, now)
			c.Close(now, 0, "bye") // the close is never polled: Poll still has it to send
			c.Release()
			c.Release() // a no-op
			return c
		}
		if got := panics(func() { _ = released().SendStream(0, []byte("x"), true) }); got != want {
			t.Errorf("poison=%v: SendStream after Release panicked = %v", want, got)
		}
		if got := panics(func() { _ = released().Receive(now, []byte{0x40, 0}) }); got != want {
			t.Errorf("poison=%v: Receive after Release panicked = %v", want, got)
		}
		if got := panics(func() { _ = released().Poll(now) }); got != want {
			t.Errorf("poison=%v: Poll with a close to send after Release panicked = %v", want, got)
		}
		// With nothing to send, polling a released connection is a driver's
		// harmless last flush.
		c := NewClientConn(Config{Rng: rand.New(rand.NewSource(1)), Arena: arena}, now)
		c.Release()
		if panics(func() { _ = c.Poll(now) }) {
			t.Errorf("poison=%v: idle Poll after Release panicked", want)
		}
		if arena != nil && arena.PooledConns() != 4 {
			t.Errorf("%d connections held after four were released (three of them twice)", arena.PooledConns())
		}
	}
}
