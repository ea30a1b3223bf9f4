package transport_test

import (
	"errors"
	"testing"
	"time"

	"quicspin/internal/netem"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

// runWithBudget drives one request against the echo server with the given
// client budget and an optional server-side datagram mangler, until the
// client connection terminates or the virtual deadline passes. It returns
// the client connection for inspection.
func runWithBudget(t *testing.T, budget transport.Budget, mangle netem.Mangler, body string) *transport.Conn {
	t.Helper()
	path := netem.PathConfig{Delay: 20 * time.Millisecond}
	h := newHarness(t, path, transport.Config{Budget: budget}, transport.Config{})
	if mangle != nil {
		h.net.SetMangler("server", mangle)
	}
	conn := h.client.Conn()
	sent := false
	h.client.OnActivity = func(c *transport.Conn, now time.Time) {
		if c.HandshakeComplete() && !sent {
			sent = true
			if err := c.SendStream(0, []byte(body), true); err != nil {
				t.Errorf("client SendStream: %v", err)
			}
		}
	}
	h.client.Kick()
	h.loop.RunUntil(epoch.Add(2 * time.Minute))
	return conn
}

// budgetKind asserts the connection died on a BudgetError of the given
// kind, reachable through errors.As.
func budgetKind(t *testing.T, conn *transport.Conn, kind string) *transport.BudgetError {
	t.Helper()
	if !conn.Terminating() {
		t.Fatal("connection still alive; budget never tripped")
	}
	var be *transport.BudgetError
	if !errors.As(conn.TermError(), &be) {
		t.Fatalf("terminal error %v (%T), want *BudgetError", conn.TermError(), conn.TermError())
	}
	if be.Kind != kind {
		t.Fatalf("budget kind %q, want %q", be.Kind, kind)
	}
	return be
}

func TestBudgetRecvBytes(t *testing.T) {
	body := make([]byte, 20000)
	conn := runWithBudget(t, transport.Budget{MaxRecvBytes: 4096}, nil, string(body))
	be := budgetKind(t, conn, transport.BudgetRecvBytes)
	if be.Limit != 4096 {
		t.Errorf("limit %d, want 4096", be.Limit)
	}
}

func TestBudgetRecvPackets(t *testing.T) {
	// Amplify the first server datagram into a storm (the PacketStorm
	// profile shape): the packet budget must cut the connection off.
	first := true
	storm := func(data []byte) [][]byte {
		if !first {
			return [][]byte{data}
		}
		first = false
		out := make([][]byte, 300)
		for i := range out {
			out[i] = data
		}
		return out
	}
	conn := runWithBudget(t, transport.Budget{MaxRecvPackets: 64}, storm, "x")
	budgetKind(t, conn, transport.BudgetRecvPackets)
	if conn.Stats().PacketsReceived > 64+8 {
		t.Errorf("%d packets processed after a 64-packet budget", conn.Stats().PacketsReceived)
	}
}

func TestBudgetMalformedDatagram(t *testing.T) {
	// Truncate every short-header datagram to 3 bytes (the MalformedHeader
	// profile shape): headers stop parsing once the handshake is done.
	trunc := func(data []byte) [][]byte {
		if len(data) == 0 || wire.IsLongHeader(data[0]) {
			return [][]byte{data}
		}
		n := len(data)
		if n > 3 {
			n = 3
		}
		return [][]byte{data[:n]}
	}
	conn := runWithBudget(t, transport.Budget{MaxMalformed: 3}, trunc, "x")
	budgetKind(t, conn, transport.BudgetMalformedDatagram)
	if !conn.HandshakeComplete() {
		t.Error("handshake should complete over untouched long headers")
	}
}

func TestBudgetMalformedFrame(t *testing.T) {
	// Corrupt the first frame type of every short packet into the unknown
	// type 0x1f (the MalformedFrames profile shape).
	corrupt := func(data []byte) [][]byte {
		if len(data) == 0 || wire.IsLongHeader(data[0]) {
			return [][]byte{data}
		}
		off := 1 + transport.DefaultConnIDLen + int(data[0]&0x3) + 1
		if len(data) <= off {
			return [][]byte{data}
		}
		cp := append([]byte(nil), data...)
		cp[off] = 0x1f
		return [][]byte{cp}
	}
	conn := runWithBudget(t, transport.Budget{MaxMalformed: 3}, corrupt, "x")
	budgetKind(t, conn, transport.BudgetMalformedFrame)
}

// TestBudgetErrorSurvivesClose checks the scanner-visible property that a
// budget terminal error is not overwritten by the scanner's own cleanup
// Close at the end of the probe.
func TestBudgetErrorSurvivesClose(t *testing.T) {
	body := make([]byte, 20000)
	conn := runWithBudget(t, transport.Budget{MaxRecvBytes: 4096}, nil, string(body))
	budgetKind(t, conn, transport.BudgetRecvBytes)
	conn.Close(epoch.Add(3*time.Minute), 0, "scan complete")
	budgetKind(t, conn, transport.BudgetRecvBytes)
}

// TestZeroBudgetUnlimited checks the zero Budget disables every limit: a
// large transfer completes untouched.
func TestZeroBudgetUnlimited(t *testing.T) {
	path := netem.PathConfig{Delay: 20 * time.Millisecond}
	h := newHarness(t, path, transport.Config{}, transport.Config{})
	body := make([]byte, 30000)
	resp := h.request(t, 0, string(body), time.Minute)
	if len(resp) != len(body)+5 {
		t.Fatalf("got %d bytes, want %d", len(resp), len(body)+5)
	}
	var be *transport.BudgetError
	if errors.As(h.client.Conn().TermError(), &be) {
		t.Fatalf("zero budget tripped: %v", be)
	}
}
