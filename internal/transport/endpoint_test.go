package transport

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Sequential connections through one endpoint, client and server sharing a
// poisoned arena, over a path that drops and reorders: every response
// arrives intact (retransmissions read send buffers the stream has since
// outgrown), each request stream is accepted exactly once with its peer's
// address, every closed connection is dropped and released, and the pools —
// of buffers and of connections — stop growing once they are warm. A released
// connection waits in quarantine: it is not handed out before the owner's
// Drained call, and is after it.
func TestEndpointDropsReleasesAndRecycles(t *testing.T) {
	arena := &Arena{poison: true}
	rng := rand.New(rand.NewSource(11))
	probes := 0
	ep := NewEndpoint(func(peer string) Config {
		if peer == "" {
			probes++
		}
		return Config{Rng: rng, Arena: arena}
	})
	accepted := 0

	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	request := bytes.Repeat([]byte("q"), 300)
	response := make([]byte, 40_000)
	rand.New(rand.NewSource(3)).Read(response)
	var pooledWarm, connsWarm int
	const conns = 40
	var quarantined []*Conn // released in the iteration before
	for i := 0; i < conns; i++ {
		client := NewClientConn(Config{Rng: rng, Arena: arena}, now)
		if i > 0 && !slices.Contains(quarantined, client) {
			t.Fatalf("conn %d: a new Conn was made with %d released ones drained", i, len(quarantined))
		}
		if err := client.SendStream(0, request, true); err != nil {
			t.Fatal(err)
		}
		var serverConn *Conn
		answered, toClient := 0, 0
		// step moves one flight each way: the server's datagrams reach the
		// client in reverse order, every fifth is lost.
		step := func() {
			now = now.Add(5 * time.Millisecond)
			client.Advance(now)
			ep.Advance(now)
			for _, dg := range client.Poll(now) {
				if err := ep.Receive(now, "c", dg); err != nil {
					t.Fatalf("conn %d: endpoint receive: %v", i, err)
				}
			}
			for st, ok := ep.AcceptStream(); ok; st, ok = ep.AcceptStream() {
				if st.Peer != "c" || st.ID != 0 || !bytes.Equal(st.Data, request) {
					t.Fatalf("conn %d: accepted stream %d from %q with a different request", i, st.ID, st.Peer)
				}
				accepted++
				serverConn = st.Conn
			}
			// Three writes over three steps: the stream's buffer is outgrown
			// while its earlier bytes are in flight, some of them lost.
			if serverConn != nil && answered < 3 {
				cuts := [...]int{0, 100, 5000, len(response)}
				_ = serverConn.SendStream(0, response[cuts[answered]:cuts[answered+1]], answered == 2)
				answered++
			}
			out := ep.Poll(now)
			for k := len(out) - 1; k >= 0; k-- {
				if toClient++; toClient%5 == 0 {
					continue
				}
				if err := client.Receive(now, out[k].Data); err != nil {
					t.Fatalf("conn %d: client receive: %v", i, err)
				}
			}
		}
		for n := 0; n < 2000; n++ {
			step()
			if _, done := client.StreamRecv(0); done {
				break
			}
		}
		got, done := client.StreamRecv(0)
		if !done || !bytes.Equal(got, response) {
			t.Fatalf("conn %d: response incomplete or corrupt (%d of %d bytes, complete %v)", i, len(got), len(response), done)
		}
		client.Close(now, 0, "done")
		for n := 0; n < 2000 && len(ep.Conns()) > 0; n++ {
			step()
		}
		client.Release()
		if data, _ := client.StreamRecv(0); data != nil {
			t.Fatalf("conn %d: stream data survives Release", i)
		}
		if live := len(ep.Conns()); live != 0 {
			t.Fatalf("conn %d: %d connections still live after the close", i, live)
		}
		// Both sides are released and quarantined: before the drain a new
		// connection gets neither of them, nor anything else from the pool.
		quarantined = []*Conn{client, serverConn}
		if got := NewClientConn(Config{Rng: rand.New(rand.NewSource(1)), Arena: arena}, now); slices.Contains(quarantined, got) || arena.PooledConns() != 2 {
			t.Fatalf("conn %d: a quarantined connection was handed out before Drained (%d held)", i, arena.PooledConns())
		}
		arena.Drained()
		switch i {
		case conns / 2:
			pooledWarm, connsWarm = arena.Pooled(), arena.PooledConns()
		case conns - 1:
			if got := arena.Pooled(); got != pooledWarm {
				t.Errorf("pool grew from %d to %d buffers between connection %d and %d", pooledWarm, got, conns/2, i)
			}
			if got := arena.PooledConns(); got != connsWarm || got != 2 {
				t.Errorf("%d connections pooled at connection %d, %d at %d; want the 2 of one exchange", connsWarm, conns/2, got, i)
			}
		}
	}
	if accepted != conns {
		t.Errorf("%d request streams accepted over %d connections, want one each", accepted, conns)
	}
	if probes > 1 {
		t.Errorf("NewConnConfig(\"\") called %d times to learn the connection-ID length, want once", probes)
	}
}

// Poll and Conns hand out per-endpoint scratch: polling an idle endpoint,
// listing its connections and asking it for a stream allocate nothing.
func TestEndpointPollAndConnsReuseScratch(t *testing.T) {
	ep, now := establishedEndpoint(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := ep.AcceptStream(); ok || len(ep.Conns()) != 1 {
			t.Fatal("unexpected connection state")
		}
		_ = ep.Poll(now)
	}); n != 0 {
		t.Errorf("Conns + AcceptStream + idle Poll allocate %.0f times per call, want 0", n)
	}
}
