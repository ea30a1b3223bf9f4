package transport

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"quicspin/internal/wire"
)

// establishedEndpoint returns an endpoint whose one connection, from peer
// "c", has a confirmed handshake.
func establishedEndpoint(t *testing.T) (*Endpoint, time.Time) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	ep := NewEndpoint(func(string) Config { return Config{Rng: rng} })
	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)
	client := NewClientConn(Config{Rng: rng}, now)
	if _, _, ok := client.AcceptStream(); ok {
		t.Fatal("a connection accepted a stream before its handshake")
	}
	for n := 0; n < 50 && !client.HandshakeConfirmed(); n++ {
		now = now.Add(time.Millisecond)
		for _, dg := range client.Poll(now) {
			_ = ep.Receive(now, "c", dg)
		}
		for _, out := range ep.Poll(now) {
			_ = client.Receive(now, out.Data)
		}
	}
	if len(ep.Conns()) != 1 || !ep.Conns()[0].HandshakeComplete() {
		t.Fatal("handshake did not complete")
	}
	return ep, now
}

// drain accepts until nothing is left and renders what came out, in order.
func drain(c *Conn) string {
	var out []string
	for id, data, ok := c.AcceptStream(); ok; id, data, ok = c.AcceptStream() {
		out = append(out, fmt.Sprintf("%d=%s", id, data))
	}
	return strings.Join(out, " ")
}

// Every completed stream is accepted exactly once, only when its FIN and all
// bytes before it are in, lowest stream ID first — whatever order, duplication
// or retransmission the STREAM frames arrive with.
func TestAcceptStream(t *testing.T) {
	type step struct {
		id, off uint64
		data    string
		fin     bool
		hold    bool   // do not drain after this frame
		want    string // the drain after this frame
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"in order", []step{
			{id: 0, off: 0, data: "ab"},
			{id: 0, off: 2, data: "cd", fin: true, want: "0=abcd"},
		}},
		{"out of order", []step{
			{id: 0, off: 2, data: "cd", fin: true},
			{id: 0, off: 0, data: "ab", want: "0=abcd"},
		}},
		{"duplicated frames and a retransmitted FIN", []step{
			{id: 0, off: 0, data: "ab"},
			{id: 0, off: 0, data: "ab"},
			{id: 0, off: 2, data: "cd", fin: true, want: "0=abcd"},
			{id: 0, off: 2, data: "cd", fin: true},
			{id: 0, off: 0, data: "abcd", fin: true},
		}},
		{"FIN before the gap is filled", []step{
			{id: 4, off: 4, data: "ef", fin: true},
			{id: 4, off: 0, data: "ab"},
			{id: 4, off: 2, data: "cd", want: "4=abcdef"},
		}},
		{"empty stream", []step{
			{id: 8, fin: true, want: "8="},
			{id: 8, fin: true},
		}},
		{"three interleaved streams", []step{
			{id: 8, off: 0, data: "x"},
			{id: 0, off: 1, data: "b", fin: true},
			{id: 4, off: 0, data: "cd", fin: true, want: "4=cd"},
			{id: 8, off: 1, data: "y", fin: true, hold: true},
			{id: 12, off: 0, data: "z", hold: true},
			{id: 0, off: 0, data: "a", hold: true},
			{id: 4, off: 0, data: "cd", fin: true, want: "0=ab 8=xy"},
			{id: 12, off: 1, fin: true, want: "12=z"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep, now := establishedEndpoint(t)
			c := ep.Conns()[0]
			for i, s := range tc.steps {
				f := &wire.StreamFrame{StreamID: s.id, Offset: s.off, Data: []byte(s.data), Fin: s.fin}
				if err := c.handleFrame(now, spaceAppData, f); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if s.hold {
					continue
				}
				if got := drain(c); got != s.want {
					t.Errorf("step %d: accepted %q, want %q", i, got, s.want)
				}
			}
			if got := drain(c); got != "" {
				t.Errorf("accepted %q a second time", got)
			}
		})
	}
}

// Accepting allocates nothing, and a closing connection hands out no stream:
// it could not be answered.
func TestAcceptStreamZeroAllocAndClosing(t *testing.T) {
	ep, now := establishedEndpoint(t)
	c := ep.Conns()[0]
	for _, id := range []uint64{8, 0, 4} {
		f := &wire.StreamFrame{StreamID: id, Data: []byte("request"), Fin: true}
		if err := c.handleFrame(now, spaceAppData, f); err != nil {
			t.Fatal(err)
		}
	}
	accepted := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, r := range c.streamsRecv {
			r.accepted = false
		}
		for _, _, ok := c.AcceptStream(); ok; _, _, ok = c.AcceptStream() {
			accepted++
		}
	}); n != 0 {
		t.Errorf("AcceptStream allocates %.0f times per drain of three streams, want 0", n)
	}
	if accepted != 3*101 { // AllocsPerRun warms up with one extra run
		t.Errorf("accepted %d streams over 101 drains of three", accepted)
	}
	c.streamsRecv[0].accepted = false
	c.Close(now, 0, "bye")
	if id, _, ok := c.AcceptStream(); ok {
		t.Errorf("a closing connection handed out stream %d", id)
	}
}
