package transport_test

import (
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/netem"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

var epoch = time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

// harness wires one client and one echo-style server over netem.
type harness struct {
	loop   *sim.Loop
	net    *netem.Network
	client *netem.ClientHost
	server *netem.ServerHost
}

// newHarness builds a client/server pair. serverPolicy configures the
// server's spin behaviour; onServe is invoked for completed request streams
// and returns the response body.
func newHarness(t *testing.T, path netem.PathConfig, clientCfg, serverCfg transport.Config) *harness {
	t.Helper()
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(1234))
	net := netem.New(loop, path, rng)

	if serverCfg.Rng == nil {
		serverCfg.Rng = rand.New(rand.NewSource(99))
	}
	ep := transport.NewEndpoint(func(peer string) transport.Config { return serverCfg })
	server := netem.NewServerHost(net, "server", ep)
	server.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for st, ok := ep.AcceptStream(); ok; st, ok = ep.AcceptStream() {
			resp := append([]byte("ECHO:"), st.Data...)
			if err := st.Conn.SendStream(st.ID, resp, true); err != nil {
				t.Errorf("server SendStream: %v", err)
			}
		}
	}

	if clientCfg.Rng == nil {
		clientCfg.Rng = rand.New(rand.NewSource(7))
	}
	conn := transport.NewClientConn(clientCfg, loop.Now())
	client := netem.NewClientHost(net, "client", "server", conn)
	return &harness{loop: loop, net: net, client: client, server: server}
}

// request runs one request/response exchange on the given stream and
// returns the response once complete, failing the test on timeout.
func (h *harness) request(t *testing.T, id uint64, body string, timeout time.Duration) []byte {
	t.Helper()
	conn := h.client.Conn()
	sent := false
	done := false
	var resp []byte
	h.client.OnActivity = func(c *transport.Conn, now time.Time) {
		if c.HandshakeComplete() && !sent {
			sent = true
			if err := c.SendStream(id, []byte(body), true); err != nil {
				t.Errorf("client SendStream: %v", err)
			}
		}
		if data, complete := c.StreamRecv(id); complete && !done {
			done = true
			resp = data
		}
	}
	// If the handshake is already complete (later requests), queue now.
	if conn.HandshakeComplete() {
		sent = true
		if err := conn.SendStream(id, []byte(body), true); err != nil {
			t.Fatalf("client SendStream: %v", err)
		}
	}
	h.client.Kick()
	deadline := h.loop.Now().Add(timeout)
	for !done && h.loop.Now().Before(deadline) {
		if !h.loop.Step() {
			break
		}
	}
	if !done {
		t.Fatalf("request on stream %d not answered within %v (virtual); stats=%+v, net=%v",
			id, timeout, conn.Stats(), h.net.Stats())
	}
	return resp
}

func TestHandshakeAndRequestResponse(t *testing.T) {
	path := netem.PathConfig{Delay: 50 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	resp := h.request(t, 0, "GET /index.html", 5*time.Second)
	if string(resp) != "ECHO:GET /index.html" {
		t.Errorf("response = %q", resp)
	}
	conn := h.client.Conn()
	if !conn.HandshakeConfirmed() {
		t.Error("client handshake not confirmed")
	}
	est := conn.RTT()
	if !est.HasSample() {
		t.Fatal("no RTT samples")
	}
	// Network RTT is 100 ms; the estimator must be close (ack delays are
	// subtracted, scheduling adds a little).
	if est.Smoothed() < 95*time.Millisecond || est.Smoothed() > 140*time.Millisecond {
		t.Errorf("smoothed RTT = %v, want ≈100ms", est.Smoothed())
	}
	if est.Min() < 95*time.Millisecond || est.Min() > 110*time.Millisecond {
		t.Errorf("min RTT = %v, want ≈100ms", est.Min())
	}
	if len(conn.Observations()) == 0 {
		t.Error("no spin observations on received 1-RTT packets")
	}
}

func TestLargeTransferUnderLoss(t *testing.T) {
	path := netem.PathConfig{Delay: 30 * time.Millisecond, LossRate: 0.08, Jitter: 5 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	body := make([]byte, 20000)
	for i := range body {
		body[i] = byte(i * 7)
	}
	resp := h.request(t, 0, string(body), 60*time.Second)
	want := "ECHO:" + string(body)
	if string(resp) != want {
		t.Fatalf("corrupted transfer: got %d bytes, want %d", len(resp), len(want))
	}
	if h.net.Stats().Dropped == 0 {
		t.Error("loss link dropped nothing; test is vacuous")
	}
}

func TestTransferUnderReordering(t *testing.T) {
	path := netem.PathConfig{Delay: 40 * time.Millisecond, ReorderRate: 0.2, ReorderExtra: 15 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	body := make([]byte, 8000)
	resp := h.request(t, 0, string(body), 60*time.Second)
	if len(resp) != len(body)+5 {
		t.Fatalf("got %d bytes, want %d", len(resp), len(body)+5)
	}
	if h.net.Stats().Reordered == 0 {
		t.Error("reordering link reordered nothing; test is vacuous")
	}
}

func TestMultipleRequestsSequential(t *testing.T) {
	path := netem.PathConfig{Delay: 20 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	for i := 0; i < 5; i++ {
		id := uint64(i * 4)
		resp := h.request(t, id, "req", 10*time.Second)
		if string(resp) != "ECHO:req" {
			t.Fatalf("request %d: response %q", i, resp)
		}
	}
	// Sequential exchanges keep 1-RTT packets flowing; the server spins by
	// default, so the client must observe flips.
	if !core.HasFlips(h.client.Conn().Observations()) {
		t.Error("no spin flips observed across five exchanges")
	}
}

func TestServerSpinPolicies(t *testing.T) {
	cases := []struct {
		name   string
		policy core.Policy
		check  func(t *testing.T, obs []core.Observation)
	}{
		{"zero", core.Policy{Mode: core.ModeZero}, func(t *testing.T, obs []core.Observation) {
			if core.ClassifySeries(obs) != core.KindAllZero {
				t.Errorf("classified %v, want All Zero", core.ClassifySeries(obs))
			}
		}},
		{"one", core.Policy{Mode: core.ModeOne}, func(t *testing.T, obs []core.Observation) {
			if core.ClassifySeries(obs) != core.KindAllOne {
				t.Errorf("classified %v, want All One", core.ClassifySeries(obs))
			}
		}},
		{"spin", core.Policy{Mode: core.ModeSpin}, func(t *testing.T, obs []core.Observation) {
			if !core.HasFlips(obs) {
				t.Error("spinning server produced no flips")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := netem.PathConfig{Delay: 25 * time.Millisecond}
			h := newHarness(t, path, transport.Config{}, transport.Config{SpinPolicy: c.policy})
			for i := 0; i < 4; i++ {
				h.request(t, uint64(i*4), "x", 10*time.Second)
			}
			obs := h.client.Conn().Observations()
			if len(obs) < 4 {
				t.Fatalf("only %d observations", len(obs))
			}
			c.check(t, obs)
		})
	}
}

func TestSpinRTTMatchesPathRTT(t *testing.T) {
	// With continuous ping-pong traffic and no server processing delay,
	// the spin-bit RTT measured from the client's received packets should
	// approximate the true network RTT.
	path := netem.PathConfig{Delay: 50 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	for i := 0; i < 10; i++ {
		h.request(t, uint64(i*4), "ping", 10*time.Second)
	}
	rtts := core.SpinRTTs(h.client.Conn().Observations(), false)
	if len(rtts) == 0 {
		t.Fatal("no spin RTT samples")
	}
	var sum time.Duration
	for _, r := range rtts {
		sum += r
	}
	mean := sum / time.Duration(len(rtts))
	// Request pacing adds delay between edges; expect ≥ network RTT and
	// within a small multiple.
	if mean < 100*time.Millisecond || mean > 400*time.Millisecond {
		t.Errorf("mean spin RTT = %v, want within [100ms, 400ms]", mean)
	}
}

func TestUnresponsiveServerTimesOut(t *testing.T) {
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(5))
	net := netem.New(loop, netem.PathConfig{Delay: 10 * time.Millisecond}, rng)
	net.Blackhole("server", true)
	conn := transport.NewClientConn(transport.Config{Rng: rng, IdleTimeout: 4 * time.Second}, loop.Now())
	client := netem.NewClientHost(net, "client", "server", conn)
	client.Kick()
	loop.RunUntil(epoch.Add(2 * time.Minute))
	if !conn.Closed() {
		t.Fatal("connection to blackholed server never closed")
	}
	if conn.TermError() == nil {
		t.Error("closed without terminal error")
	}
	if conn.Stats().PTOCount == 0 {
		t.Error("no PTO fired against unresponsive server")
	}
}

func TestClientCloseDrainsServer(t *testing.T) {
	path := netem.PathConfig{Delay: 10 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	h.request(t, 0, "bye", 5*time.Second)
	serverConns := h.server.Endpoint().Conns()
	if len(serverConns) != 1 {
		t.Fatalf("server conns = %d", len(serverConns))
	}
	sc := serverConns[0]
	h.client.Conn().Close(h.loop.Now(), 0, "done")
	h.client.Kick()
	h.loop.RunUntil(h.loop.Now().Add(time.Minute))
	if !h.client.Conn().Closed() {
		t.Error("client conn not closed")
	}
	if !sc.Terminating() {
		t.Error("server conn did not enter draining on CONNECTION_CLOSE")
	}
	terr, ok := sc.TermError().(*transport.TransportError)
	if !ok || !terr.Remote || terr.Reason != "done" {
		t.Errorf("server term error = %v", sc.TermError())
	}
}

func TestEndpointServesMultipleClients(t *testing.T) {
	loop := sim.NewLoop(epoch)
	rng := rand.New(rand.NewSource(21))
	net := netem.New(loop, netem.PathConfig{Delay: 15 * time.Millisecond}, rng)
	serverRng := rand.New(rand.NewSource(500))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: serverRng}
	})
	server := netem.NewServerHost(net, "server", ep)
	server.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for _, conn := range ep.Conns() {
			if data, done := conn.StreamRecv(0); done {
				if resp, _ := conn.StreamRecv(0); len(resp) > 0 { // already have it
					_ = resp
				}
				if err := conn.SendStream(0, append([]byte("ok:"), data...), true); err != nil {
					// Stream may already carry the response; ignore
					// double-send errors from repeated activity callbacks.
					_ = err
				}
			}
		}
	}
	const n = 8
	clients := make([]*netem.ClientHost, n)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		conn := transport.NewClientConn(transport.Config{Rng: rand.New(rand.NewSource(int64(i + 1)))}, loop.Now())
		addr := string(rune('a' + i))
		clients[i] = netem.NewClientHost(net, addr, "server", conn)
		sent := false
		clients[i].OnActivity = func(c *transport.Conn, now time.Time) {
			if c.HandshakeComplete() && !sent {
				sent = true
				_ = c.SendStream(0, []byte{byte(i)}, true)
			}
			if _, complete := c.StreamRecv(0); complete {
				done[i] = true
			}
		}
		clients[i].Kick()
	}
	loop.RunUntil(epoch.Add(30 * time.Second))
	for i, d := range done {
		if !d {
			t.Errorf("client %d never got a response", i)
		}
	}
}

func TestVECTransport(t *testing.T) {
	path := netem.PathConfig{Delay: 25 * time.Millisecond}
	h := newHarness(t, path,
		transport.Config{EnableVEC: true},
		transport.Config{EnableVEC: true})
	for i := 0; i < 6; i++ {
		h.request(t, uint64(i*4), "v", 10*time.Second)
	}
	sawValid := false
	for _, ob := range h.client.Conn().Observations() {
		if ob.VEC == core.VECFullyValid {
			sawValid = true
		}
	}
	if !sawValid {
		t.Error("no fully-valid VEC edges observed")
	}
}

func TestQuickConnectionsUnderRandomConditions(t *testing.T) {
	// Mini soak: random path conditions must never wedge the event loop or
	// corrupt data; either the request completes or the connection times
	// out cleanly.
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		path := netem.PathConfig{
			Delay:       time.Duration(5+rng.Intn(150)) * time.Millisecond,
			Jitter:      time.Duration(rng.Intn(20)) * time.Millisecond,
			LossRate:    rng.Float64() * 0.15,
			ReorderRate: rng.Float64() * 0.2,
		}
		h := newHarness(t, path, transport.Config{}, transport.Config{})
		body := make([]byte, rng.Intn(5000))
		resp := h.request(t, 0, string(body), 2*time.Minute)
		if len(resp) != len(body)+5 {
			t.Errorf("seed %d: got %d bytes, want %d", seed, len(resp), len(body)+5)
		}
	}
}
