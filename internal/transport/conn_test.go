package transport_test

import (
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/netem"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

func TestClientInitialDatagramPadded(t *testing.T) {
	conn := transport.NewClientConn(transport.Config{Rng: rand.New(rand.NewSource(1))}, epoch)
	dgrams := conn.Poll(epoch)
	if len(dgrams) == 0 {
		t.Fatal("no first flight")
	}
	if len(dgrams[0]) < transport.MinInitialSize {
		t.Errorf("client Initial datagram = %d bytes, want ≥ %d", len(dgrams[0]), transport.MinInitialSize)
	}
	// The padded datagram must still parse packet by packet.
	rest := dgrams[0]
	for len(rest) > 0 {
		hdr, _, consumed, err := wire.ParseHeader(rest, 8, wire.NoAckedPacket)
		if err != nil {
			t.Fatalf("parsing padded Initial: %v", err)
		}
		if !hdr.IsLong {
			break // trailing short packet extends to the end
		}
		rest = rest[consumed:]
	}
}

func TestEndpointIgnoresGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	// Unroutable short-header packet, runt datagram, malformed long header.
	if err := ep.Receive(epoch, "x", []byte{0x40, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Errorf("unroutable short packet: %v", err)
	}
	if err := ep.Receive(epoch, "x", []byte{0x40}); err == nil {
		t.Error("runt datagram accepted")
	}
	if err := ep.Receive(epoch, "x", nil); err != nil {
		t.Errorf("empty datagram: %v", err)
	}
	if err := ep.Receive(epoch, "x", []byte{0xc0, 0xde, 0xad}); err == nil {
		t.Error("malformed long header accepted")
	}
	if len(ep.Conns()) != 0 {
		t.Errorf("garbage created %d connections", len(ep.Conns()))
	}
	if _, ok := ep.NextTimeout(); ok {
		t.Error("timer armed without connections")
	}
}

func TestConnStatsPopulated(t *testing.T) {
	path := netem.PathConfig{Delay: 10 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	h.request(t, 0, "stats", 5*time.Second)
	st := h.client.Conn().Stats()
	if st.PacketsSent == 0 || st.PacketsReceived == 0 ||
		st.ShortReceived == 0 || st.BytesSent == 0 || st.BytesReceived == 0 ||
		st.DatagramsSent == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestIdleTimeoutClosesQuietConnection(t *testing.T) {
	path := netem.PathConfig{Delay: 5 * time.Millisecond}
	h := newHarness(t, path, transport.Config{IdleTimeout: 2 * time.Second}, transport.Config{})
	h.request(t, 0, "x", 5*time.Second)
	// Let the connection idle past its timeout without closing it.
	h.loop.RunUntil(h.loop.Now().Add(time.Minute))
	if !h.client.Conn().Closed() {
		t.Fatal("idle connection did not close")
	}
	if h.client.Conn().TermError() == nil {
		t.Error("idle close carries no error")
	}
}
