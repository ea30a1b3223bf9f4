package netem

import (
	"math/rand"
	"testing"
	"time"

	"quicspin/internal/sim"
)

var epoch = time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

func newNet(def PathConfig, seed int64) (*sim.Loop, *Network) {
	loop := sim.NewLoop(epoch)
	return loop, New(loop, def, rand.New(rand.NewSource(seed)))
}

func TestDeliveryDelay(t *testing.T) {
	loop, n := newNet(PathConfig{Delay: 25 * time.Millisecond}, 1)
	var at time.Time
	var got []byte
	n.Attach("b", func(now time.Time, from string, data []byte) {
		at = now
		got = append([]byte(nil), data...)
		if from != "a" {
			t.Errorf("from = %q", from)
		}
	})
	n.Send("a", "b", []byte("hi"))
	loop.Run()
	if !at.Equal(epoch.Add(25 * time.Millisecond)) {
		t.Errorf("delivered at %v", at)
	}
	if string(got) != "hi" {
		t.Errorf("data = %q", got)
	}
}

func TestSendCopiesData(t *testing.T) {
	loop, n := newNet(PathConfig{}, 1)
	buf := []byte("abc")
	var got string
	n.Attach("b", func(_ time.Time, _ string, data []byte) { got = string(data) })
	n.Send("a", "b", buf)
	buf[0] = 'X' // caller reuses the buffer before delivery
	loop.Run()
	if got != "abc" {
		t.Errorf("delivered %q; Send must copy", got)
	}
}

func TestLoss(t *testing.T) {
	loop, n := newNet(PathConfig{LossRate: 0.5}, 42)
	delivered := 0
	n.Attach("b", func(time.Time, string, []byte) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send("a", "b", []byte{1})
	}
	loop.Run()
	if delivered < 850 || delivered > 1150 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, total)
	}
	st := n.Stats()
	if st.Sent != total || st.Dropped+st.Delivered != total {
		t.Errorf("stats = %+v", st)
	}
}

func TestFIFOWithJitter(t *testing.T) {
	loop, n := newNet(PathConfig{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}, 7)
	var order []byte
	n.Attach("b", func(_ time.Time, _ string, data []byte) { order = append(order, data[0]) })
	for i := byte(0); i < 100; i++ {
		n.Send("a", "b", []byte{i})
		loop.RunUntil(loop.Now().Add(100 * time.Microsecond))
	}
	loop.Run()
	if len(order) != 100 {
		t.Fatalf("delivered %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("jitter reordered FIFO path: %v", order[:i+1])
		}
	}
}

func TestExplicitReordering(t *testing.T) {
	loop, n := newNet(PathConfig{Delay: 10 * time.Millisecond, ReorderRate: 1, ReorderExtra: 20 * time.Millisecond}, 7)
	// First packet reordered (held 20ms extra); second sent 1ms later on a
	// non-reordering path overtakes it.
	var order []byte
	n.Attach("b", func(_ time.Time, _ string, data []byte) { order = append(order, data[0]) })
	n.Send("a", "b", []byte{1})
	n.SetPath("a", "b", PathConfig{Delay: 10 * time.Millisecond})
	loop.RunUntil(epoch.Add(time.Millisecond))
	n.Send("a", "b", []byte{2})
	loop.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("order = %v, want [2 1]", order)
	}
	if n.Stats().Reordered != 1 {
		t.Errorf("reordered = %d", n.Stats().Reordered)
	}
}

func TestDuplication(t *testing.T) {
	loop, n := newNet(PathConfig{DuplicateRate: 1}, 3)
	count := 0
	n.Attach("b", func(time.Time, string, []byte) { count++ })
	n.Send("a", "b", []byte{1})
	loop.Run()
	if count != 2 {
		t.Errorf("delivered %d copies, want 2", count)
	}
	if n.Stats().Duplicated != 1 {
		t.Errorf("dup stat = %d", n.Stats().Duplicated)
	}
}

func TestBlackholeAndDetach(t *testing.T) {
	loop, n := newNet(PathConfig{}, 3)
	count := 0
	n.Attach("b", func(time.Time, string, []byte) { count++ })
	n.Blackhole("b", true)
	n.Send("a", "b", []byte{1})
	loop.Run()
	n.Blackhole("b", false)
	n.Send("a", "b", []byte{1})
	loop.Run()
	n.Detach("b")
	n.Send("a", "b", []byte{1})
	loop.Run()
	if count != 1 {
		t.Errorf("delivered %d, want 1 (blackhole and detach must drop)", count)
	}
}

func TestPerPathConfigAndClear(t *testing.T) {
	loop, n := newNet(PathConfig{Delay: time.Millisecond}, 3)
	n.SetSymmetricPath("a", "b", PathConfig{Delay: 50 * time.Millisecond})
	var at time.Time
	n.Attach("b", func(now time.Time, _ string, _ []byte) { at = now })
	n.Send("a", "b", []byte{1})
	loop.Run()
	if !at.Equal(epoch.Add(50 * time.Millisecond)) {
		t.Errorf("per-path delay not applied: %v", at)
	}
	n.ClearPath("a", "b")
	start := loop.Now()
	n.Send("a", "b", []byte{1})
	loop.Run()
	if got := at.Sub(start); got != time.Millisecond {
		t.Errorf("after ClearPath delay = %v, want default 1ms", got)
	}
}

func TestTapSeesDeliveries(t *testing.T) {
	loop, n := newNet(PathConfig{}, 3)
	n.Attach("b", func(time.Time, string, []byte) {})
	taps := 0
	n.SetTap(func(now time.Time, from, to string, data []byte) {
		taps++
		if from != "a" || to != "b" {
			t.Errorf("tap saw %s→%s", from, to)
		}
	})
	n.Send("a", "b", []byte{1})
	loop.Run()
	if taps != 1 {
		t.Errorf("taps = %d", taps)
	}
}

func TestStatsString(t *testing.T) {
	if s := (Stats{Sent: 1}).String(); s == "" {
		t.Error("empty Stats string")
	}
}

// TestFailFirstOutage pins the mechanism behind an injected transient
// outage: the scanner blackholes the server for each failing attempt and
// lifts the blackhole for the next one.
func TestFailFirstOutage(t *testing.T) {
	loop, n := newNet(PathConfig{Delay: time.Millisecond}, 1)
	delivered := 0
	n.Attach("srv", func(time.Time, string, []byte) { delivered++ })
	for attempt := 0; attempt < 3; attempt++ {
		n.Blackhole("srv", attempt < 2) // attempts 1 and 2 fail
		n.Send("cli", "srv", []byte{1})
		loop.Run()
		if want := attempt / 2; delivered != want {
			t.Fatalf("attempt %d: %d packets reached the server, want %d", attempt, delivered, want)
		}
	}
}

// TestFailFirstClear: the blackhole is also checked at delivery, so
// lifting it mid-outage saves a packet already in flight.
func TestFailFirstClear(t *testing.T) {
	loop, n := newNet(PathConfig{Delay: time.Millisecond}, 1)
	delivered := 0
	n.Attach("srv", func(time.Time, string, []byte) { delivered++ })
	for _, lifted := range []bool{true, false} {
		n.Send("cli", "srv", []byte{1})
		n.Blackhole("srv", true) // the packet is in flight
		n.Blackhole("srv", !lifted)
		loop.Run()
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want only the packet whose blackhole was lifted", delivered)
	}
}
