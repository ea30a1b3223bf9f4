package h3

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

// A long-lived server must not remember the connections it has outlived. It
// cannot: which streams were answered is the connection's own knowledge, so
// the Server holds nothing that could grow — no field of it is a map, slice,
// pointer, channel or interface — while a thousand sequential connections are
// each answered exactly once and dropped by the endpoint.
func TestServerForgetsDroppedConnections(t *testing.T) {
	for typ, i := reflect.TypeOf(Server{}), 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Map, reflect.Slice, reflect.Pointer, reflect.Chan, reflect.Interface:
			t.Errorf("Server.%s is a %s: the server must hold no per-connection state", f.Name, f.Type.Kind())
		}
	}

	start := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	loop := sim.NewLoop(start)
	rng := rand.New(rand.NewSource(5))
	network := netem.New(loop, netem.PathConfig{Delay: 5 * time.Millisecond}, rng)
	ep := transport.NewEndpoint(func(string) transport.Config { return transport.Config{Rng: rng} })
	handled := 0
	srv := NewServer(func(peer string, _ *Request) *Response {
		if peer != "client" {
			t.Errorf("handler saw peer %q, want the client's address", peer)
		}
		handled++
		return &Response{Status: 200, Headers: map[string]string{"server": "t"}, Body: []byte("ok")}
	})
	host := netem.NewServerHost(network, "server", ep)
	host.OnActivity = srv.ServeEndpoint

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
		peak = max(peak, len(ep.Conns()))
		// Even connections drain before the next one starts; odd ones leave
		// their server side closing while the next connection runs.
		if i%2 == 0 {
			for loop.Step() {
			}
		}
		client.Close()
		if handled != i+1 {
			t.Fatalf("after connection %d: %d requests handled, want one per connection", i, handled)
		}
	}
	for loop.Step() {
	}
	if live := len(ep.Conns()); live != 0 {
		t.Errorf("after the drain: %d live connections, want 0", live)
	}
	if peak > 2 {
		t.Errorf("the endpoint peaked at %d live connections over %d sequential ones, want <= 2", peak, conns)
	}
}
