package h3_test

import (
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/h3"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

var epoch = time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

// pair wires a ClientConn and a Server over a lossless emulated path.
func pair(t *testing.T, handler h3.Handler) (*sim.Loop, *netem.ClientHost, *h3.ClientConn) {
	t.Helper()
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(9))
	network := netem.New(loop, netem.PathConfig{Delay: 10 * time.Millisecond}, rng)
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	srv := h3.NewServer(handler)
	host := netem.NewServerHost(network, "server", ep)
	host.OnActivity = srv.ServeEndpoint
	conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
	client := netem.NewClientHost(network, "client", "server", conn)
	return loop, client, h3.NewClientConn(conn)
}

func TestClientConnSequentialRequests(t *testing.T) {
	loop, client, hc := pair(t, func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{
			Status:  200,
			Headers: map[string]string{"server": "t", "echo-path": req.Path},
			Body:    []byte(req.Authority),
		}
	})
	ids := make([]uint64, 3)
	for i := range ids {
		id, err := hc.Do(&h3.Request{Method: "GET", Authority: "www.a.test", Path: "/p", Headers: map[string]string{}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Stream IDs follow the client-bidi numbering.
	if ids[0] != 0 || ids[1] != 4 || ids[2] != 8 {
		t.Fatalf("stream ids = %v", ids)
	}
	client.Kick()
	loop.RunUntil(epoch.Add(10 * time.Second))
	for _, id := range ids {
		resp, done, err := hc.Response(id)
		if err != nil || !done {
			t.Fatalf("stream %d: (%v, %v)", id, done, err)
		}
		if resp.Status != 200 || string(resp.Body) != "www.a.test" || resp.Headers["echo-path"] != "/p" {
			t.Errorf("stream %d: %+v", id, resp)
		}
	}
	if hc.Conn() == nil {
		t.Error("Conn() nil")
	}
}

func TestResponseNotReadyBeforeArrival(t *testing.T) {
	_, _, hc := pair(t, func(string, *h3.Request) *h3.Response { return &h3.Response{Status: 200} })
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, _ := hc.Response(id); done {
		t.Error("response reported complete before any packet flowed")
	}
}

func TestServerAnswersMalformedRequestWith400(t *testing.T) {
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(3))
	network := netem.New(loop, netem.PathConfig{Delay: 5 * time.Millisecond}, rng)
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	srv := h3.NewServer(func(string, *h3.Request) *h3.Response {
		t.Error("handler called for malformed request")
		return nil
	})
	host := netem.NewServerHost(network, "server", ep)
	host.OnActivity = srv.ServeEndpoint
	conn := transport.NewClientConn(transport.Config{Rng: rng}, loop.Now())
	if err := conn.SendStream(0, []byte("NOT A REQUEST\n\n"), true); err != nil {
		t.Fatal(err)
	}
	client := netem.NewClientHost(network, "client", "server", conn)
	client.Kick()
	loop.RunUntil(epoch.Add(5 * time.Second))
	data, done := conn.StreamRecv(0)
	if !done {
		t.Fatal("no response to malformed request")
	}
	resp, err := h3.ParseResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 {
		t.Errorf("status = %d, want 400", resp.Status)
	}
}

func TestNilHandlerResponseBecomes500(t *testing.T) {
	loop, client, hc := pair(t, func(string, *h3.Request) *h3.Response { return nil })
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	client.Kick()
	loop.RunUntil(epoch.Add(5 * time.Second))
	resp, done, err := hc.Response(id)
	if err != nil || !done {
		t.Fatalf("(%v, %v)", done, err)
	}
	if resp.Status != 500 {
		t.Errorf("status = %d, want 500", resp.Status)
	}
}

func TestDoAfterClose(t *testing.T) {
	_, _, hc := pair(t, func(string, *h3.Request) *h3.Response { return &h3.Response{Status: 200} })
	hc.Conn().Close(epoch, 0, "bye")
	if _, err := hc.Do(&h3.Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{}}); err == nil {
		t.Error("Do succeeded on closed connection")
	}
}
