package udprun

import (
	"bytes"
	"net"
	"testing"
	"time"

	"quicspin/internal/fault"
)

// always is a plan that applies one udp fault to every datagram.
func always(kind fault.Kind) *fault.Plan {
	return fault.New(1, fault.Rule{Site: fault.UDP, Kind: kind, P: 1})
}

// faultPair returns a fault-wrapped sender and a plain receiver on
// loopback UDP.
func faultPair(t *testing.T, plan *fault.Plan) (*FaultConn, net.PacketConn, net.Addr) {
	t.Helper()
	recv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	send, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		recv.Close()
		t.Fatal(err)
	}
	fc := NewFaultConn(send, plan, "sender")
	t.Cleanup(func() { send.Close(); recv.Close() })
	return fc, recv, recv.LocalAddr()
}

// collect reads datagrams until the deadline and returns them.
func collect(t *testing.T, pc net.PacketConn, deadline time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	buf := make([]byte, 2048)
	end := time.Now().Add(deadline)
	for {
		pc.SetReadDeadline(end)
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return out
		}
		out = append(out, append([]byte(nil), buf[:n]...))
	}
}

func TestFaultConnDrop(t *testing.T) {
	plan := always(fault.Drop)
	fc, recv, addr := faultPair(t, plan)
	for i := 0; i < 5; i++ {
		if _, err := fc.WriteTo([]byte("doomed"), addr); err != nil {
			t.Fatalf("dropped write reported error: %v", err)
		}
	}
	if got := collect(t, recv, 100*time.Millisecond); len(got) != 0 {
		t.Errorf("Drop=1 delivered %d datagrams", len(got))
	}
	if got := plan.Injected(fault.UDP, fault.Drop); got != 5 {
		t.Errorf("injected drops = %d, want 5 of 5 sent", got)
	}
}

func TestFaultConnDuplicate(t *testing.T) {
	plan := always(fault.Dup)
	fc, recv, addr := faultPair(t, plan)
	if _, err := fc.WriteTo([]byte("twice"), addr); err != nil {
		t.Fatal(err)
	}
	got := collect(t, recv, 200*time.Millisecond)
	if len(got) != 2 || !bytes.Equal(got[0], got[1]) {
		t.Fatalf("Dup=1 delivered %d datagrams, want 2 identical", len(got))
	}
	if got := plan.Injected(fault.UDP, fault.Dup); got != 1 {
		t.Errorf("injected duplicates = %d, want 1", got)
	}
}

func TestFaultConnCorruptFlipsExactlyOneBit(t *testing.T) {
	fc, recv, addr := faultPair(t, always(fault.Corrupt))
	orig := []byte("payload-payload-payload")
	if _, err := fc.WriteTo(orig, addr); err != nil {
		t.Fatal(err)
	}
	got := collect(t, recv, 200*time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d datagrams, want 1", len(got))
	}
	if len(got[0]) != len(orig) {
		t.Fatalf("corrupted datagram changed length: %d -> %d", len(orig), len(got[0]))
	}
	flipped := 0
	for i := range orig {
		diff := orig[i] ^ got[0][i]
		for ; diff != 0; diff &= diff - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", flipped)
	}
	// The caller's buffer must stay untouched (corruption copies).
	if !bytes.Equal(orig, []byte("payload-payload-payload")) {
		t.Error("corruption mutated the caller's buffer")
	}
}

func TestFaultConnDelayReorders(t *testing.T) {
	plan := always(fault.Delay)
	plan.MaxDelay = 50 * time.Millisecond
	fc, recv, addr := faultPair(t, plan)
	if _, err := fc.WriteTo([]byte("held"), addr); err != nil {
		t.Fatal(err)
	}
	// The second datagram bypasses the fault conn entirely, so it must
	// overtake the held-back first one.
	direct, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.WriteTo([]byte("prompt"), addr); err != nil {
		t.Fatal(err)
	}
	got := collect(t, recv, 300*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d datagrams, want 2", len(got))
	}
	if string(got[0]) != "prompt" || string(got[1]) != "held" {
		t.Errorf("delivery order = %q, %q; want prompt before held", got[0], got[1])
	}
	if got := plan.Injected(fault.UDP, fault.Delay); got != 1 {
		t.Errorf("injected delays = %d, want 1", got)
	}
}

// TestFaultConfigEnabled: the shard layer wraps its sockets whenever there
// is a plan; one without udp rules must leave them transparent.
func TestFaultConfigEnabled(t *testing.T) {
	fc, recv, addr := faultPair(t, fault.New(1, fault.Rule{Site: fault.FS, Kind: fault.WriteErr, P: 1}))
	if _, err := fc.WriteTo([]byte("intact"), addr); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, recv, 100*time.Millisecond); len(got) != 1 || string(got[0]) != "intact" {
		t.Errorf("plan without udp rules delivered %q", got)
	}
}
