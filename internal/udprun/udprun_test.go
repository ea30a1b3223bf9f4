package udprun

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/transport"
)

// startServer launches an HTTP/3-lite echo server on a loopback UDP socket
// and returns its address and a stop function.
func startServer(t *testing.T, policy core.Policy) (net.Addr, func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng, SpinPolicy: policy}
	})
	srv := h3.NewServer(func(peer string, req *h3.Request) *h3.Response {
		return &h3.Response{
			Status:  200,
			Headers: map[string]string{"server": "quicspin-test", "x-peer": peer},
			Body:    make([]byte, 30000),
		}
	})
	runner := NewEndpointRunner(ep, pc)
	runner.OnActivity = srv.ServeEndpoint
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = runner.Run(ctx)
	}()
	return pc.LocalAddr(), func() {
		cancel()
		pc.Close()
		<-done
	}
}

func doRequest(t *testing.T, addr net.Addr) (*h3.Response, *transport.Conn) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	conn := transport.NewClientConn(transport.Config{
		Rng:         rand.New(rand.NewSource(5)),
		IdleTimeout: 5 * time.Second,
	}, time.Now())
	hc := h3.NewClientConn(conn)
	id, err := hc.Do(&h3.Request{Method: "GET", Authority: "www.test.invalid", Path: "/", Headers: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	runner := NewConnRunner(conn, pc, addr)
	var resp *h3.Response
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	runner.OnActivity = func(c *transport.Conn, now time.Time) {
		if resp != nil {
			return
		}
		if r, complete, err := hc.Response(id); complete {
			if err != nil {
				t.Errorf("response parse: %v", err)
			}
			resp = r
			c.Close(now, 0, "done")
		}
	}
	if err := runner.Run(ctx); err != nil && ctx.Err() == nil {
		t.Fatalf("runner: %v", err)
	}
	if resp == nil {
		t.Fatalf("no response within deadline; stats=%+v", conn.Stats())
	}
	// The handler is told who asked: the client's socket address, not a
	// constant.
	if got, want := resp.Headers["x-peer"], pc.LocalAddr().String(); got != want {
		t.Errorf("handler saw peer %q, want %q", got, want)
	}
	return resp, conn
}

func TestRequestOverRealUDP(t *testing.T) {
	addr, stop := startServer(t, core.Policy{Mode: core.ModeSpin})
	defer stop()
	resp, conn := doRequest(t, addr)
	if resp.Status != 200 || len(resp.Body) != 30000 {
		t.Fatalf("response = %d, %d body bytes", resp.Status, len(resp.Body))
	}
	if resp.Server() != "quicspin-test" {
		t.Errorf("server header = %q", resp.Server())
	}
	if !conn.HandshakeConfirmed() {
		t.Error("handshake not confirmed")
	}
	if !conn.RTT().HasSample() {
		t.Error("no RTT samples over real UDP")
	}
	if len(conn.Observations()) == 0 {
		t.Error("no spin observations")
	}
}

func TestSpinPolicyVisibleOverUDP(t *testing.T) {
	addr, stop := startServer(t, core.Policy{Mode: core.ModeOne})
	defer stop()
	_, conn := doRequest(t, addr)
	if got := core.ClassifySeries(conn.Observations()); got != core.KindAllOne {
		t.Errorf("observed series = %v, want All One", got)
	}
}
