package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClientSpinsServerReflects(t *testing.T) {
	client := NewEndpointState(true)
	server := NewEndpointState(false)
	if client.Value() || server.Value() {
		t.Fatal("initial spin value must be 0")
	}
	// Client sends 0; server reflects 0.
	server.OnReceive(0, client.Value())
	if server.Value() != false {
		t.Fatal("server must reflect 0")
	}
	// Server's 0 arrives at client; client inverts to 1.
	client.OnReceive(0, server.Value())
	if client.Value() != true {
		t.Fatal("client must invert to 1")
	}
	// Next half-wave: server reflects 1, client inverts to 0.
	server.OnReceive(1, client.Value())
	if server.Value() != true {
		t.Fatal("server must reflect 1")
	}
	client.OnReceive(1, server.Value())
	if client.Value() != false {
		t.Fatal("client must invert back to 0")
	}
}

func TestReorderedPacketsIgnored(t *testing.T) {
	s := NewEndpointState(false)
	s.OnReceive(10, true)
	if s.Value() != true {
		t.Fatal("server did not reflect")
	}
	// An older packet with the opposite value must not regress the state.
	s.OnReceive(5, false)
	if s.Value() != true {
		t.Error("reordered packet changed spin state")
	}
	if pn, ok := s.LargestReceived(); !ok || pn != 10 {
		t.Errorf("LargestReceived = (%d, %v)", pn, ok)
	}
	// Equal packet number must be ignored too.
	s.OnReceive(10, false)
	if s.Value() != true {
		t.Error("duplicate packet changed spin state")
	}
}

// TestSquareWavePeriodEqualsRTT simulates the ping-pong of Fig. 1a: the
// client's outgoing spin value must form a square wave with period equal to
// the round-trip time.
func TestSquareWavePeriodEqualsRTT(t *testing.T) {
	const owd = 50 * time.Millisecond // one-way delay, RTT = 100ms
	client := NewEndpointState(true)
	server := NewEndpointState(false)
	now := time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

	type edge struct {
		t time.Time
		v bool
	}
	var clientEdges []edge
	lastVal := client.Value()
	clientEdges = append(clientEdges, edge{now, lastVal})

	pn := uint64(0)
	for i := 0; i < 20; i++ {
		// Client sends its value; server receives after owd and reflects.
		v := client.Value()
		server.OnReceive(pn, v)
		pn++
		// Server response arrives back at client after another owd.
		now = now.Add(2 * owd)
		client.OnReceive(pn, server.Value())
		pn++
		if client.Value() != lastVal {
			lastVal = client.Value()
			clientEdges = append(clientEdges, edge{now, lastVal})
		}
	}
	if len(clientEdges) < 3 {
		t.Fatalf("expected spin edges, got %d", len(clientEdges))
	}
	for i := 1; i < len(clientEdges); i++ {
		period := clientEdges[i].t.Sub(clientEdges[i-1].t)
		if period != 2*owd {
			t.Errorf("edge %d: period %v, want %v", i, period, 2*owd)
		}
		if clientEdges[i].v == clientEdges[i-1].v {
			t.Errorf("edge %d does not alternate", i)
		}
	}
}

func TestControllerModes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t.Run("zero", func(t *testing.T) {
		c := NewController(true, Policy{Mode: ModeZero}, rng)
		for i := 0; i < 50; i++ {
			if c.Next() {
				t.Fatal("ModeZero produced 1")
			}
		}
		if c.Spinning() {
			t.Error("ModeZero claims spinning")
		}
	})
	t.Run("one", func(t *testing.T) {
		c := NewController(true, Policy{Mode: ModeOne}, rng)
		for i := 0; i < 50; i++ {
			if !c.Next() {
				t.Fatal("ModeOne produced 0")
			}
		}
	})
	t.Run("grease-per-packet", func(t *testing.T) {
		c := NewController(true, Policy{Mode: ModeGreasePerPacket}, rng)
		seen := map[bool]int{}
		for i := 0; i < 200; i++ {
			seen[c.Next()]++
		}
		if seen[true] < 50 || seen[false] < 50 {
			t.Errorf("per-packet greasing not balanced: %v", seen)
		}
	})
	t.Run("grease-per-conn", func(t *testing.T) {
		vals := map[bool]int{}
		for i := 0; i < 100; i++ {
			c := NewController(true, Policy{Mode: ModeGreasePerConn}, rng)
			first := c.Next()
			for j := 0; j < 20; j++ {
				if c.Next() != first {
					t.Fatal("per-connection grease value changed mid-connection")
				}
			}
			vals[first]++
		}
		if vals[true] < 20 || vals[false] < 20 {
			t.Errorf("per-conn grease values not balanced across connections: %v", vals)
		}
	})
	t.Run("spin-follows-state", func(t *testing.T) {
		c := NewController(false, Policy{Mode: ModeSpin}, rng)
		if c.Next() {
			t.Fatal("server initial value must be 0")
		}
		c.OnReceive(1, true)
		if !c.Next() {
			t.Fatal("server must reflect incoming 1")
		}
		if !c.Spinning() {
			t.Error("ModeSpin not spinning")
		}
	})
}

func TestControllerDisableEveryN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const conns = 20000
	disabled := 0
	for i := 0; i < conns; i++ {
		c := NewController(true, Policy{Mode: ModeSpin, DisableEveryN: 16, DisabledMode: ModeZero}, rng)
		if c.DisabledByRule() {
			disabled++
			if c.Spinning() {
				t.Fatal("disabled connection claims spinning")
			}
			if c.EffectiveMode() != ModeZero {
				t.Fatalf("disabled mode = %v", c.EffectiveMode())
			}
		}
	}
	got := float64(disabled) / conns
	if got < 0.05 || got > 0.08 {
		t.Errorf("disable rate = %.4f, want ~1/16 = 0.0625", got)
	}
}

func TestControllerDisabledGreaseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sawGrease := false
	for i := 0; i < 500 && !sawGrease; i++ {
		c := NewController(true, Policy{Mode: ModeSpin, DisableEveryN: 8, DisabledMode: ModeGreasePerConn}, rng)
		if c.DisabledByRule() && c.EffectiveMode() == ModeGreasePerConn {
			sawGrease = true
		}
	}
	if !sawGrease {
		t.Error("DisabledMode grease fallback never selected")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeSpin: "spin", ModeZero: "zero", ModeOne: "one",
		ModeGreasePerPacket: "grease-per-packet", ModeGreasePerConn: "grease-per-conn",
		Mode(99): "Mode(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// Property: for any interleaving of received packet numbers, the endpoint
// state equals the value dictated by the packet with the largest PN.
func TestEndpointStateQuickLargestPNWins(t *testing.T) {
	f := func(pns []uint16, spins []bool, client bool) bool {
		if len(pns) == 0 || len(spins) == 0 {
			return true
		}
		s := NewEndpointState(client)
		largest := -1
		var largestSpin bool
		for i, pn := range pns {
			spin := spins[i%len(spins)]
			s.OnReceive(uint64(pn), spin)
			if int(pn) > largest {
				largest = int(pn)
				largestSpin = spin
			}
		}
		want := largestSpin
		if client {
			want = !largestSpin
		}
		return s.Value() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// A controller reset for a new connection is the controller NewController
// would have made, and has drawn from the random stream what NewController
// draws: connections recycle their controller without moving any seeded
// output.
func TestControllerResetMatchesNew(t *testing.T) {
	policies := []Policy{
		{},
		{Mode: ModeSpin, DisableEveryN: 2, DisabledMode: ModeGreasePerConn},
		{Mode: ModeSpin, DisableEveryN: 16, DisabledMode: ModeZero},
		{Mode: ModeGreasePerConn},
		{Mode: ModeGreasePerPacket},
	}
	used := NewController(true, Policy{Mode: ModeGreasePerConn}, rand.New(rand.NewSource(9)))
	for seed := int64(0); seed < 50; seed++ {
		for _, p := range policies {
			for _, isClient := range []bool{true, false} {
				freshRng, usedRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				fresh := NewController(isClient, p, freshRng)
				// Leave every field of the used controller and its state dirty.
				used.OnReceive(uint64(seed)+1, seed%2 == 0)
				used.Next()
				used.Reset(isClient, p, usedRng)
				if *used.state != *fresh.state {
					t.Fatalf("seed %d policy %+v: state %+v after Reset, %+v new", seed, p, *used.state, *fresh.state)
				}
				u, f := *used, *fresh
				u.state, f.state, u.rng, f.rng = nil, nil, nil, nil
				if u != f || used.rng != usedRng {
					t.Fatalf("seed %d policy %+v: controller %+v after Reset, %+v new", seed, p, u, f)
				}
				if a, b := usedRng.Int63(), freshRng.Int63(); a != b {
					t.Fatalf("seed %d policy %+v: Reset and NewController drew differently", seed, p)
				}
			}
		}
	}
}
