package udprun

import (
	"bytes"
	"net"
	"testing"
	"time"

	"quicspin/internal/fault"
)

// checksumPair returns checksum-framed sender and receiver sockets on
// loopback UDP, the sender optionally corrupted by a FaultConn inside
// the framing.
func checksumPair(t *testing.T, faults *fault.Plan) (*ChecksumConn, *ChecksumConn, net.Addr) {
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
	t.Cleanup(func() { send.Close(); recv.Close() })
	sender := net.PacketConn(send)
	if faults != nil {
		sender = NewFaultConn(sender, faults, "sender")
	}
	return NewChecksumConn(sender), NewChecksumConn(recv), recv.LocalAddr()
}

func TestChecksumConnRoundTrip(t *testing.T) {
	send, recv, addr := checksumPair(t, nil)
	msg := []byte("framed datagram")
	n, err := send.WriteTo(msg, addr)
	if err != nil || n != len(msg) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes (trailer invisible to the caller)", n, err, len(msg))
	}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err = recv.ReadFrom(buf)
	if err != nil || !bytes.Equal(buf[:n], msg) {
		t.Fatalf("ReadFrom = %q, %v; want %q", buf[:n], err, msg)
	}
}

// TestChecksumConnDropsCorruption pins the corruption-to-loss
// degradation: every bit-flipped datagram is discarded by the receiver,
// and clean ones keep flowing on the same socket.
func TestChecksumConnDropsCorruption(t *testing.T) {
	send, recv, addr := checksumPair(t, always(fault.Corrupt))
	for i := 0; i < 5; i++ {
		if _, err := send.WriteTo([]byte("mangled in transit"), addr); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, _, err := recv.ReadFrom(buf); err == nil {
		t.Fatalf("corrupted datagram delivered: %q", buf[:n])
	}
	// The same receiver still accepts clean traffic afterwards.
	cleanSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanSock.Close()
	if _, err := NewChecksumConn(cleanSock).WriteTo([]byte("intact"), addr); err != nil {
		t.Fatal(err)
	}
	recv.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := recv.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "intact" {
		t.Fatalf("clean datagram after corruption = %q, %v", buf[:n], err)
	}
}

// TestChecksumConnDropsRuntsAndRaw checks that unframed and too-short
// datagrams from a non-speaking peer are dropped rather than surfaced.
func TestChecksumConnDropsRuntsAndRaw(t *testing.T) {
	_, recv, addr := checksumPair(t, nil)
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for _, payload := range [][]byte{{}, {1}, {1, 2, 3}, []byte("unframed datagram that fails the trailer check")} {
		if _, err := raw.WriteTo(payload, addr); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, _, err := recv.ReadFrom(buf); err == nil {
		t.Fatalf("unframed datagram delivered: %q", buf[:n])
	}
}
