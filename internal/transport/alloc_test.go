package transport

import (
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/wire"
)

// The emulated engine's per-packet allocation budget: once a connection is
// established and the scratch pools are warm, receiving a 1-RTT packet and
// generating/consuming the resulting ACK must average at most one heap
// allocation per received packet. This is the gate behind the campaign-level
// allocs/op numbers in BENCH_PR5.json.

// ferry advances the handshake by exchanging every pending datagram.
func ferry(t *testing.T, client, server *Conn, now time.Time) time.Time {
	t.Helper()
	for i := 0; i < 100; i++ {
		now = now.Add(time.Millisecond)
		progress := false
		for _, dg := range client.Poll(now) {
			progress = true
			if err := server.Receive(now, dg); err != nil {
				t.Fatalf("server receive: %v", err)
			}
		}
		for _, dg := range server.Poll(now) {
			progress = true
			if err := client.Receive(now, dg); err != nil {
				t.Fatalf("client receive: %v", err)
			}
		}
		if client.HandshakeConfirmed() && server.HandshakeConfirmed() && !progress {
			return now
		}
	}
	t.Fatal("handshake did not converge")
	return now
}

func TestReceivePathAllocBudget(t *testing.T) {
	epoch := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	clientCfg := Config{Rng: rand.New(rand.NewSource(7))}
	serverCfg := Config{Rng: rand.New(rand.NewSource(99))}
	client := NewClientConn(clientCfg, epoch)
	now := epoch
	var server *Conn
	// Bootstrap: the first client datagram carries the Initial the server
	// conn is constructed from.
	for _, dg := range client.Poll(now) {
		if server == nil {
			var hdr wire.Header
			if _, _, err := wire.ParseHeaderInto(&hdr, dg, 0, wire.NoAckedPacket); err != nil {
				t.Fatalf("parsing client initial: %v", err)
			}
			server = NewServerConn(serverCfg, hdr.DstConnID, hdr.SrcConnID, now)
		}
		if err := server.Receive(now, dg); err != nil {
			t.Fatalf("server receive: %v", err)
		}
	}
	if server == nil {
		t.Fatal("client produced no initial datagram")
	}
	now = ferry(t, client, server, now)

	// One steady-state round: the client sends a PING packet, the server
	// receives it, acks, and the client consumes the ack — 2 received
	// packets per round. encodeShort reuses sendBuf so the sender side
	// stays out of the measurement's way too.
	sendBuf := make([]byte, 0, 1500)
	pings := []sendFrame{{kind: framePing}}
	round := func() {
		now = now.Add(5 * time.Millisecond)
		dg := client.encodeShort(sendBuf[:0], pings, true, now)
		if err := server.Receive(now, dg); err != nil {
			t.Fatalf("server receive: %v", err)
		}
		for _, out := range server.Poll(now) {
			if err := client.Receive(now, out); err != nil {
				t.Fatalf("client receive: %v", err)
			}
		}
	}
	for i := 0; i < 50; i++ { // warm pools and freelists
		round()
	}
	const packetsPerRound = 2
	n := testing.AllocsPerRun(500, round)
	if perPacket := n / packetsPerRound; perPacket > 1 {
		t.Errorf("receive path allocates %.2f per packet (%.2f per round), want <= 1", perPacket, n)
	}
}
