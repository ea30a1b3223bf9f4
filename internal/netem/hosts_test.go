package netem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/sim"
	"quicspin/internal/transport"
)

type harness struct {
	loop *sim.Loop
	net  *Network
}

func newLoopNet(delay time.Duration) *harness {
	loop := sim.NewLoop(epoch)
	return &harness{loop: loop, net: New(loop, PathConfig{Delay: delay}, rand.New(rand.NewSource(2)))}
}

// buildPair wires a client and a server endpoint over the network and
// returns the hosts plus the client connection.
func buildPair(t *testing.T, loopDelay time.Duration, procDelay time.Duration) (*harness, *ClientHost, *ServerHost) {
	t.Helper()
	l := newLoopNet(loopDelay)
	rng := rand.New(rand.NewSource(4))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng, SpinPolicy: core.Policy{Mode: core.ModeSpin}}
	})
	server := NewServerHost(l.net, "server", ep)
	server.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for _, conn := range ep.Conns() {
			if data, done := conn.StreamRecv(0); done {
				if _, sent := conn.StreamRecv(42); !sent {
					_ = conn.SendStream(0, append([]byte("re:"), data...), true)
				}
			}
		}
	}
	conn := transport.NewClientConn(transport.Config{Rng: rng}, l.loop.Now())
	client := NewClientHost(l.net, "client", "server", conn)
	if procDelay > 0 {
		d := procDelay
		client.ProcessDelay = func() time.Duration { return d }
		server.ProcessDelay = func() time.Duration { return d }
	}
	return l, client, server
}

func TestHostsExchange(t *testing.T) {
	l, client, server := buildPair(t, 15*time.Millisecond, 0)
	if err := client.Conn().SendStream(0, []byte("ping"), true); err != nil {
		t.Fatal(err)
	}
	client.Kick()
	l.loop.RunUntil(l.loop.Now().Add(10 * time.Second))
	data, done := client.Conn().StreamRecv(0)
	if !done || string(data) != "re:ping" {
		t.Fatalf("response = (%q, %v)", data, done)
	}
	if server.Endpoint() == nil || client.Conn() == nil {
		t.Error("accessors returned nil")
	}
	// RTT ≈ 30 ms without processing delay.
	if got := client.Conn().RTT().Min(); got < 30*time.Millisecond || got > 40*time.Millisecond {
		t.Errorf("min RTT = %v, want ≈30ms", got)
	}
}

func TestHostsProcessDelayInflatesRTT(t *testing.T) {
	l, client, _ := buildPair(t, 15*time.Millisecond, 5*time.Millisecond)
	_ = client.Conn().SendStream(0, []byte("ping"), true)
	client.Kick()
	l.loop.RunUntil(l.loop.Now().Add(10 * time.Second))
	if _, done := client.Conn().StreamRecv(0); !done {
		t.Fatal("exchange did not complete with processing delay")
	}
	// Every reception-triggered send is delayed 5 ms, so the measured RTT
	// must exceed the raw 30 ms path round trip.
	if got := client.Conn().RTT().Min(); got < 34*time.Millisecond {
		t.Errorf("min RTT = %v, want ≥ 34ms (turnaround included)", got)
	}
}

func TestClientHostClose(t *testing.T) {
	l, client, _ := buildPair(t, 5*time.Millisecond, 0)
	_ = client.Conn().SendStream(0, []byte("x"), true)
	client.Kick()
	l.loop.RunUntil(l.loop.Now().Add(time.Second))
	client.Close()
	// After Close the client is detached: further deliveries are dropped
	// and no timers remain armed for it.
	before := l.net.Stats().Delivered
	l.net.Send("server", "client", []byte{0x40, 0x00})
	l.loop.Run()
	if l.net.Stats().Delivered != before {
		t.Error("detached client still received datagrams")
	}
}

func TestServerHostKickFlushesDelayedResponses(t *testing.T) {
	l := newLoopNet(5 * time.Millisecond)
	rng := rand.New(rand.NewSource(4))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	server := NewServerHost(l.net, "server", ep)
	served := false
	server.OnActivity = func(ep *transport.Endpoint, now time.Time) {
		for _, conn := range ep.Conns() {
			if _, done := conn.StreamRecv(0); done && !served {
				served = true
				conn := conn
				// Application answers later, from outside the activity
				// callback — exactly the path that needs Kick.
				l.loop.After(50*time.Millisecond, func(time.Time) {
					_ = conn.SendStream(0, []byte("late"), true)
					server.Kick()
				})
			}
		}
	}
	conn := transport.NewClientConn(transport.Config{Rng: rng}, l.loop.Now())
	_ = conn.SendStream(0, []byte("q"), true)
	client := NewClientHost(l.net, "client", "server", conn)
	client.Kick()
	l.loop.RunUntil(l.loop.Now().Add(10 * time.Second))
	data, done := conn.StreamRecv(0)
	if !done || string(data) != "late" {
		t.Fatalf("delayed response = (%q, %v)", data, done)
	}
	server.Close()
}

// One client host serves a sequence of probes, each from a fresh address, and
// each probe leaves without a word (host closed, paths cleared, no
// CONNECTION_CLOSE), so the server goes on retransmitting to an address nobody
// will ever attach again. The network keeps nothing for such an address: every
// table is as large after the third pass as after the first.
func TestNetworkTablesBoundedAcrossProbes(t *testing.T) {
	l := newLoopNet(5 * time.Millisecond)
	rng := rand.New(rand.NewSource(4))
	ep := transport.NewEndpoint(func(string) transport.Config { return transport.Config{Rng: rng} })
	server := NewServerHost(l.net, "server", ep)
	response := make([]byte, 20_000)
	server.OnActivity = func(ep *transport.Endpoint, _ time.Time) {
		for st, ok := ep.AcceptStream(); ok; st, ok = ep.AcceptStream() {
			_ = st.Conn.SendStream(st.ID, response, true)
		}
	}
	var client *ClientHost
	activity := 0
	probes := 0
	pass := func() TableSizes {
		for i := 0; i < 10; i++ {
			probes++
			addr := fmt.Sprintf("probe-%d", probes)
			conn := transport.NewClientConn(transport.Config{Rng: rng}, l.loop.Now())
			if client == nil {
				client = NewClientHost(l.net, addr, "server", conn)
				client.OnActivity = func(*transport.Conn, time.Time) { activity++ }
			} else {
				client.Reset(addr, "server", conn)
			}
			if client.Conn() != conn {
				t.Fatal("the host does not drive the connection it was reset to")
			}
			l.net.SetSymmetricPath(addr, "server", PathConfig{Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
			_ = conn.SendStream(0, []byte("q"), true)
			client.Kick()
			// Leave mid-response: the server has packets in flight and more to
			// retransmit.
			before := activity
			received := func() int { data, _ := conn.StreamRecv(0); return len(data) }
			for n := 0; n < 10_000 && received() < 5000; n++ {
				if !l.loop.Step() {
					break
				}
			}
			if received() < 5000 || activity == before {
				t.Fatalf("probe %d: no response through the reset host (%d activity calls)", probes, activity-before)
			}
			client.Close()
			l.net.ClearPath(addr, "server")
			l.loop.Run() // the server retransmits into the void, then gives up
		}
		if live := len(ep.Conns()); live != 0 {
			t.Fatalf("%d server connections outlive their probes", live)
		}
		return l.net.TableSizes()
	}
	after1 := pass()
	pass()
	after3 := pass()
	if after1 != after3 {
		t.Errorf("network tables grew: %+v after pass 1, %+v after pass 3", after1, after3)
	}
	if want := (TableSizes{Hosts: 1}); after3 != want {
		t.Errorf("tables hold %+v with only the server attached, want %+v", after3, want)
	}
}
