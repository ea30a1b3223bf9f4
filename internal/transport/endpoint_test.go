package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// Sequential connections through one endpoint, client and server sharing a
// poisoned arena, over a path that drops and reorders: every response
// arrives intact (retransmissions read send buffers the stream has since
// outgrown), each dropped connection is reported to OnClose exactly once and
// released, and the pool stops growing once it is warm.
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
	accepted, closed := 0, map[*Conn]int{}
	ep.OnConn = func(string, *Conn) { accepted++ }
	ep.OnClose = func(_ string, c *Conn) {
		closed[c]++
		if data, done := c.StreamRecv(0); !done || len(data) == 0 {
			t.Errorf("OnClose: the request stream is already gone (%d bytes, complete %v)", len(data), done)
		}
	}

	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	request := bytes.Repeat([]byte("q"), 300)
	response := make([]byte, 40_000)
	rand.New(rand.NewSource(3)).Read(response)
	var pooledWarm int
	const conns = 40
	for i := 0; i < conns; i++ {
		client := NewClientConn(Config{Rng: rng, Arena: arena}, now)
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
			for _, c := range ep.Conns() {
				if data, done := c.StreamRecv(0); done && answered == 0 {
					if !bytes.Equal(data, request) {
						t.Fatalf("conn %d: server read a different request", i)
					}
					serverConn = c
				}
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
		switch i {
		case conns / 2:
			pooledWarm = arena.Pooled()
		case conns - 1:
			if got := arena.Pooled(); got != pooledWarm {
				t.Errorf("pool grew from %d to %d buffers between connection %d and %d", pooledWarm, got, conns/2, i)
			}
		}
	}
	if accepted != conns || len(closed) != conns {
		t.Errorf("%d accepted, %d reported closed, want %d each", accepted, len(closed), conns)
	}
	for _, n := range closed {
		if n != 1 {
			t.Errorf("a connection was reported closed %d times", n)
		}
	}
	if probes > 1 {
		t.Errorf("NewConnConfig(\"\") called %d times to learn the connection-ID length, want once", probes)
	}
}

// Poll and Conns hand out per-endpoint scratch: polling an idle endpoint and
// listing its connections allocate nothing.
func TestEndpointPollAndConnsReuseScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ep := NewEndpoint(func(string) Config { return Config{Rng: rng} })
	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	client := NewClientConn(Config{Rng: rng}, now)
	for n := 0; n < 50 && !client.HandshakeConfirmed(); n++ {
		now = now.Add(time.Millisecond)
		for _, dg := range client.Poll(now) {
			_ = ep.Receive(now, "c", dg)
		}
		for _, out := range ep.Poll(now) {
			_ = client.Receive(now, out.Data)
		}
	}
	if len(ep.Conns()) != 1 {
		t.Fatalf("%d connections", len(ep.Conns()))
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(ep.Conns()) != 1 || len(ep.Conns()[0].RecvStreamIDs()) != 0 {
			t.Fatal("unexpected connection state")
		}
		_ = ep.Poll(now)
	}); n != 0 {
		t.Errorf("Conns + RecvStreamIDs + idle Poll allocate %.0f times per call, want 0", n)
	}
}
