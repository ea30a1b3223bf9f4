package resilience

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		in   string
		want Class
	}{
		{"", ClassNone},
		{"dns: NXDOMAIN", ClassNXDomain},
		{"dns: no record of requested type", ClassNoRecord},
		{"dns: query timed out", ClassDNSTimeout},
		{"timeout: no QUIC handshake", ClassHandshakeTimeout},
		{"timeout: no response", ClassHandshakeTimeout},
		{"connection reset", ClassReset},
		{"connection closed", ClassReset},
		{"h3: malformed request", ClassH3},
		{"panic: runtime error: index out of range", ClassPanic},
		{"stall: emulated loop exceeded watchdog", ClassStall},
		{"breaker: prefix open, domain skipped", ClassBreakerOpen},
		{"something else entirely", ClassOther},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTransientClasses(t *testing.T) {
	transient := map[Class]bool{
		ClassDNSTimeout: true, ClassHandshakeTimeout: true, ClassStall: true,
	}
	for c := ClassNone; c <= ClassOther; c++ {
		if got := c.Transient(); got != transient[c] {
			t.Errorf("%v.Transient() = %v, want %v", c, got, transient[c])
		}
	}
}

func TestRetryBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		da, db := p.Backoff(a, i), p.Backoff(b, i)
		if da != db {
			t.Fatalf("retry %d: backoff diverged with identical rng: %v vs %v", i, da, db)
		}
		if da < 0 {
			t.Fatalf("retry %d: negative backoff %v", i, da)
		}
	}
}

func TestRetryBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxRetries: 10, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Backoff(nil, i); got != w {
			t.Errorf("retry %d: backoff = %v, want %v", i, got, w)
		}
	}
	// Huge retry counts must not overflow into negative durations.
	if got := p.Backoff(nil, 62); got != time.Second {
		t.Errorf("retry 62: backoff = %v, want cap %v", got, time.Second)
	}
}

func TestRetryPolicyZeroValueDisabled(t *testing.T) {
	var p RetryPolicy
	if p.Enabled() {
		t.Fatal("zero-value RetryPolicy must be disabled")
	}
}

func TestRetrySleepInterruptible(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Jitter: -1}
	if !p.Sleep(nil, 0, nil) {
		t.Fatal("uninterrupted Sleep must report completion")
	}
	// A closed interrupt channel aborts even a very long backoff at once.
	interrupted := make(chan struct{})
	close(interrupted)
	long := RetryPolicy{BaseBackoff: time.Hour, Jitter: -1}
	done := make(chan bool, 1)
	go func() { done <- long.Sleep(nil, 0, interrupted) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("interrupted Sleep must report false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep ignored the closed interrupt channel")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, Cooldown: time.Second}
	b := NewBreaker(cfg)
	key := "as-64500"
	pos := 0
	// acquire and record count what every decision and transition says.
	var opened, closed, probes int
	acquire := func() Decision {
		d := b.Acquire(key, pos)
		if d.Probe {
			probes++
		}
		return d
	}
	record := func(o Outcome) Events {
		ev := b.Record(key, pos, o)
		if ev.Opened {
			opened++
		}
		if ev.Closed {
			closed++
		}
		return ev
	}
	step := func(o Outcome) (Decision, Events) {
		d := acquire()
		ev := record(o)
		pos++
		return d, ev
	}

	// Closed: success resets the streak.
	if d, _ := step(Outcome{Cost: time.Millisecond}); d.Skip || d.State != StateClosed {
		t.Fatalf("closed success: unexpected decision %+v", d)
	}
	// Two transients: still closed.
	step(Outcome{Transient: true, Cost: time.Millisecond})
	if d, ev := step(Outcome{Transient: true, Cost: time.Millisecond}); d.Skip || ev.Opened {
		t.Fatalf("below threshold: decision %+v events %+v", d, ev)
	}
	// Third consecutive transient opens the breaker.
	if _, ev := step(Outcome{Transient: true, Cost: time.Millisecond}); !ev.Opened {
		t.Fatal("threshold reached: breaker did not open")
	}
	if got := b.GroupState(key); got != StateOpen {
		t.Fatalf("state after open = %v", got)
	}

	// Open: skipped until the cooldown elapses on the virtual clock.
	// Each skip advances the clock by skipCost (250ms); cooldown is 1s.
	skips := 0
	for {
		d := acquire()
		if d.Probe {
			// Half-open probe: fail it — breaker must re-open.
			if ev := record(Outcome{Transient: true, Cost: time.Millisecond}); !ev.Opened {
				t.Fatal("failed probe did not re-open breaker")
			}
			pos++
			break
		}
		if !d.Skip {
			t.Fatalf("open breaker let a scan through: %+v", d)
		}
		record(Outcome{Skipped: true})
		pos++
		skips++
		if skips > 50 {
			t.Fatal("cooldown never elapsed")
		}
	}
	if want := int(cfg.Cooldown / skipCost); skips != want {
		t.Errorf("skips before probe = %d, want %d (cooldown %v / skip cost %v)", skips, want, cfg.Cooldown, skipCost)
	}
	if got := b.GroupState(key); got != StateOpen {
		t.Fatalf("state after failed probe = %v", got)
	}

	// Wait out the cooldown again; this time the probe succeeds and closes.
	for {
		d := acquire()
		if d.Probe {
			if ev := record(Outcome{Cost: time.Millisecond}); !ev.Closed {
				t.Fatal("successful probe did not close breaker")
			}
			pos++
			break
		}
		record(Outcome{Skipped: true})
		pos++
	}
	if got := b.GroupState(key); got != StateClosed {
		t.Fatalf("state after successful probe = %v", got)
	}
	// Closed again: scans flow.
	if d, _ := step(Outcome{Cost: time.Millisecond}); d.Skip {
		t.Fatal("closed breaker skipped a scan")
	}

	if opened != 2 || closed != 1 || probes != 2 {
		t.Errorf("opened %d, closed %d, probes %d; want Opened 2 Closed 1 Probes 2", opened, closed, probes)
	}
}

func TestBreakerGateOrdering(t *testing.T) {
	// Whatever order goroutines arrive in, decisions are made in position
	// order — so the set of skipped positions is a pure function of the
	// outcome sequence.
	cfg := BreakerConfig{Threshold: 2, Cooldown: time.Hour}
	const n = 64
	// Outcome schedule: positions 0 and 1 fail transiently (opens at 1),
	// so positions 2..n-1 must all be skipped.
	run := func(seed int64) []bool {
		b := NewBreaker(cfg)
		skipped := make([]bool, n)
		var wg sync.WaitGroup
		order := rand.New(rand.NewSource(seed)).Perm(n)
		for _, p := range order {
			wg.Add(1)
			go func(pos int) {
				defer wg.Done()
				d := b.Acquire("k", pos)
				if d.Skip {
					skipped[pos] = true
					b.Record("k", pos, Outcome{Skipped: true})
					return
				}
				b.Record("k", pos, Outcome{Transient: true, Cost: time.Millisecond})
			}(p)
		}
		wg.Wait()
		return skipped
	}
	a := run(1)
	bres := run(99)
	for i := range a {
		if a[i] != bres[i] {
			t.Fatalf("position %d: skip decision depends on arrival order", i)
		}
		wantSkip := i >= 2
		if a[i] != wantSkip {
			t.Errorf("position %d: skipped=%v, want %v", i, a[i], wantSkip)
		}
	}
}

func TestBreakerAbortUnblocks(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1})
	done := make(chan Decision, 1)
	go func() {
		// Position 5 can never proceed (0..4 never record) until Abort.
		done <- b.Acquire("k", 5)
	}()
	time.Sleep(10 * time.Millisecond)
	b.Abort()
	select {
	case d := <-done:
		if !d.Aborted {
			t.Fatalf("expected aborted decision, got %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock Acquire")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(i%3, fmt.Sprintf("key-%d", i), rec{Name: fmt.Sprintf("d%d", i), N: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite within the same shard: last write per key wins.
	if err := j.Append(4%3, "key-4", rec{Name: "d4", N: 400}); err != nil {
		t.Fatal(err)
	}
	if j.Count() != 11 {
		t.Fatalf("Count = %d, want 11", j.Count())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, torn, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn = %d, want 0", torn)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d keys, want 10", len(got))
	}
	var r rec
	if err := json.Unmarshal(got["key-4"], &r); err != nil {
		t.Fatal(err)
	}
	if r.N != 400 {
		t.Errorf("key-4 N = %d, want 400 (last write wins)", r.N)
	}
}

// TestAppendJSONStringMatchesMarshal: the journal's string escaper writes
// what encoding/json writes, for every byte value in every position of a
// rune and for the runes json treats specially.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	inputs := []string{"", "plain", `w12/v4/example.com`, `"\\"`, "<>&", "tab\tnl\n"}
	for b := 0; b < 256; b++ {
		inputs = append(inputs, "a"+string([]byte{byte(b)})+"z", string([]byte{0xe2, 0x80, byte(b)}), string([]byte{byte(b), 0xa8}))
	}
	for _, r := range []rune{0x7f, 0x80, 0x2027, 0x2028, 0x2029, 0x202a, 0xfffd, 0x10ffff} {
		inputs = append(inputs, "x"+string(r)+"y")
	}
	for _, in := range inputs {
		want, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("dst"), in); string(got) != "dst"+string(want) {
			t.Errorf("AppendJSONString(%q) = %s, json.Marshal = %s", in, got[3:], want)
		}
	}
}

// TestJournalLineGrammar: the one-pass line is the line the two-pass
// encoder wrote — json.Marshal of the {"k","s","v"} envelope — whether the
// value encodes itself or goes through json.Marshal.
func TestJournalLineGrammar(t *testing.T) {
	var encodes int
	for _, tc := range []struct {
		key string
		seq int64
		v   any
	}{
		{"w1/v4/example.com", 1, map[string]int{"n": 1}},
		{"w52/v6/a\"<b>\\&\x01\xff", 7<<seqGenShift + 9, []string{"<", "x"}},
		{"self-encoding", 1 << seqGenShift, countedValue{&encodes}},
		{"nil", 3, nil},
	} {
		raw := []byte("1") // what a countedValue writes for itself
		if _, self := tc.v.(countedValue); !self {
			var err error
			if raw, err = json.Marshal(tc.v); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(journalRecord{K: tc.key, S: tc.seq, V: raw})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecord(nil, tc.key, tc.seq, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Errorf("line for %q:\n got %s\nwant %s", tc.key, got, want)
		}
	}
	if _, err := appendRecord(nil, "k", 1, func() {}); err == nil {
		t.Error("a value json.Marshal refuses was journaled")
	}
}

func TestJournalReplayTornLine(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, "good", map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-write: append a truncated record with no
	// trailing newline, plus a garbage line in a second shard.
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0, 1)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"torn","v":{"v"`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1, 2)), []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, torn, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 2 {
		t.Errorf("torn = %d, want 2", torn)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d keys, want 1", len(got))
	}
	if _, ok := got["good"]; !ok {
		t.Error("complete record lost during replay")
	}
}

func TestJournalReplayMissingDir(t *testing.T) {
	got, torn, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || torn != 0 {
		t.Fatalf("missing dir replay = (%d keys, %d torn), want empty", len(got), torn)
	}
}
