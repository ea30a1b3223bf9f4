package h3

import (
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

// A long-lived server must not remember the connections it has outlived:
// with Forget driven from the endpoint's drop hook, a thousand sequential
// connections leave exactly the live ones in the served table.
func TestServerForgetsDroppedConnections(t *testing.T) {
	start := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(5))
	network := netem.New(loop, netem.PathConfig{Delay: 5 * time.Millisecond}, rng)
	ep := transport.NewEndpoint(func(string) transport.Config { return transport.Config{Rng: rng} })
	srv := NewServer(func(string, *Request) *Response {
		return &Response{Status: 200, Headers: map[string]string{"server": "t"}, Body: []byte("ok")}
	})
	ep.OnClose = func(_ string, conn *transport.Conn) { srv.Forget(conn) }
	host := netem.NewServerHost(network, "server", ep)
	host.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for _, conn := range ep.Conns() {
			srv.Serve("client", conn, now)
		}
	}

	const conns = 1000
	peak := 0
	for i := 0; i < conns; i++ {
		conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
		hc := NewClientConn(conn)
		id, err := hc.Do(&Request{Method: "GET", Authority: "a", Path: "/"})
		if err != nil {
			t.Fatal(err)
		}
		client := netem.NewClientHost(network, "client", "server", conn)
		done := false
		client.OnActivity = func(c *transport.Conn, now time.Time) {
			if _, complete, _ := hc.Response(id); complete && !done {
				done = true
				c.Close(now, 0, "done")
			}
		}
		client.Kick()
		for !done && loop.Step() {
		}
		if !done {
			t.Fatalf("connection %d: no response", i)
		}
		peak = max(peak, len(srv.served))
		// Even connections drain before the next one starts; odd ones leave
		// their server side closing while the next connection runs.
		if i%2 == 0 {
			for loop.Step() {
			}
		}
		client.Close()
		if got, live := len(srv.served), len(ep.Conns()); got != live {
			t.Fatalf("after connection %d: %d served entries, %d live connections", i, got, live)
		}
	}
	for loop.Step() {
	}
	if len(srv.served) != 0 || len(ep.Conns()) != 0 {
		t.Errorf("after the drain: %d served entries, %d live connections, want 0 and 0", len(srv.served), len(ep.Conns()))
	}
	if peak > 2 {
		t.Errorf("served table peaked at %d entries over %d sequential connections, want <= 2", peak, conns)
	}
}
