package fault

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParse is the grammar's one table: every directive, both argument
// shapes, and every reject case.
func TestParse(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		spec     string
		seed     int64
		maxDelay time.Duration
		rules    []Rule
	}{
		{spec: "  "}, // empty: nil plan
		{"seed:9, udp.drop:0.1, udp.dup:0.05, udp.corrupt:0.02, udp.delay:0.2, udp.max-delay:40ms", 9, 40 * ms, []Rule{
			{Site: UDP, Kind: Drop, P: 0.1}, {Site: UDP, Kind: Dup, P: 0.05},
			{Site: UDP, Kind: Corrupt, P: 0.02}, {Site: UDP, Kind: Delay, P: 0.2}}},
		{"shard.crash:1@25,shard.panic:0@40x2,shard.crash:3@10", 1, 25 * ms, []Rule{
			{Site: Shard, Kind: Crash, Target: "1", P: 1, After: 25, Times: 1}, // the multiplier defaults to 1
			{Site: Shard, Kind: Panic, Target: "0", P: 1, After: 40, Times: 2},
			{Site: Shard, Kind: Crash, Target: "3", P: 1, After: 10, Times: 1}}},
		{"seed:42,fs.short-write:0.1,fs.write-err:0.2,fs.sync-err:0.3,fs.open-err:0.4", 42, 25 * ms, []Rule{
			{Site: FS, Kind: ShortWrite, P: 0.1}, {Site: FS, Kind: WriteErr, P: 0.2}, {Site: FS, Kind: SyncErr, P: 0.3},
			{Site: FS, Kind: OpenErr, P: 0.4}}},
		{"dns.timeout:0.3/2,net.blackout:0.1/1,net.blackout:2001:db8::1@1,scan.interrupt:5000,scan.interrupt:7x3,scan.panic:www.example.com@1,seed:-4", -4, 25 * ms, []Rule{
			{Site: DNS, Kind: Timeout, P: 0.3, Times: 2},
			{Site: Net, Kind: Blackout, P: 0.1, Times: 1},
			{Site: Net, Kind: Blackout, Target: "2001:db8::1", P: 1},
			{Site: Scan, Kind: Interrupt, P: 1, After: 5000, Times: 1},
			{Site: Scan, Kind: Interrupt, P: 1, After: 7, Times: 3},
			{Site: Scan, Kind: Panic, Target: "www.example.com", P: 1}}},
	} {
		p, err := Parse(tc.spec)
		switch {
		case err != nil:
			t.Errorf("Parse(%q): %v", tc.spec, err)
		case tc.rules == nil:
			if p != nil || p.Hit(UDP, Drop, "x", 0) || p.Rules() != nil {
				t.Errorf("Parse(%q) = %+v, want an inert nil plan", tc.spec, p)
			}
		case p.seed != tc.seed || p.MaxDelay != tc.maxDelay || !reflect.DeepEqual(p.Rules(), tc.rules):
			t.Errorf("Parse(%q) = seed %d, max-delay %v, rules %+v; want %d, %v, %+v",
				tc.spec, p.seed, p.MaxDelay, p.Rules(), tc.seed, tc.maxDelay, tc.rules)
		case p.MaxDelayGiven() != strings.Contains(tc.spec, "udp.max-delay"):
			t.Errorf("Parse(%q).MaxDelayGiven() = %v", tc.spec, p.MaxDelayGiven())
		}
	}
	for _, bad := range []string{
		"udp.drop", "udp.drop:", "udp.drop:2", "udp.drop:-0.1", "udp.drop:x", "udp.drop:NaN", "seed:x",
		"udp.max-delay:0", "udp.max-delay:soon", "warp:0.5", "drop:0.5", "fs.bogus:1", "dns.drop:0.1",
		"fs.short-write:2", "fs.short-write:x", "fs.short-write", "dns.timeout:0.3/0", "dns.timeout:0.3/x",
		"dns.timeout:@0.5", "shard.crash:1", "shard.crash:x@2", "shard.crash:-1@2", "shard.crash:1@-2",
		"shard.crash:1@2x0", "shard.crash:1@2xq", "shard.crash:1@2x", "shard.panic:@5", "shard.stall:0@10", "scan.interrupt:soon", "scan.interrupt:x@5",
		"udp.drop:0.1,,udp.dup:0.1",
	} {
		if p, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", bad, p.Rules())
		}
	}
}

// TestDecisionIsAPureFunction: the same (seed, site, target, n) gets the
// same answer whatever the call order and whichever goroutine asks.
func TestDecisionIsAPureFunction(t *testing.T) {
	rules := []Rule{{Site: UDP, Kind: Drop, P: 0.3}, {Site: DNS, Kind: Timeout, P: 0.5, Times: 2}}
	ask := func(p *Plan, i int) bool {
		if i%2 == 0 {
			return p.Hit(UDP, Drop, "conn-"+strconv.Itoa(i%6), i/6)
		}
		return p.Hit(DNS, Timeout, "name-"+strconv.Itoa(i/4), i%4)
	}
	const keys = 1200
	ref, want := New(7, rules...), make([]bool, keys)
	for i := range want {
		want[i] = ask(ref, i)
	}
	shared := New(7, rules...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < keys; j++ {
				i := (j*7 + g*13) % keys // a different order per goroutine
				if got := ask(shared, i); got != want[i] {
					t.Errorf("goroutine %d: key %d = %v, want %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, one := shared.Injected(UDP, AnyKind)+shared.Injected(DNS, Timeout), ref.Injected(UDP, Drop)+ref.Injected(DNS, AnyKind); got != 4*one {
		t.Errorf("tally = %d after 4 passes, want 4 x %d", got, one)
	}
	other, differ := New(8, rules...), false
	for i := range want {
		differ = differ || ask(other, i) != want[i]
	}
	if !differ {
		t.Error("seeds 7 and 8 fire the identical pattern")
	}
}

// TestShareIsHonest: over 10^5 keys the observed share sits within four
// binomial standard errors of P — for the per-operation die, the
// per-target die and Draw's uniformity alike.
func TestShareIsHonest(t *testing.T) {
	const n = 100_000
	within := func(name string, hits int, p float64) {
		t.Helper()
		if se := math.Sqrt(p * (1 - p) / n); math.Abs(float64(hits)/n-p) > 4*se {
			t.Errorf("%s: %d of %d fired, want a share within 4 s.e. of %g", name, hits, n, p)
		}
	}
	for _, share := range []float64{0.02, 0.3, 0.9} {
		p := New(11, Rule{Site: FS, Kind: WriteErr, P: share}, Rule{Site: Net, Kind: Blackout, P: share, Times: 1})
		perOp, perTarget, low := 0, 0, 0
		for i := 0; i < n; i++ {
			if p.Hit(FS, WriteErr, "seg.jsonl", p.Next(FS)) {
				perOp++
			}
			if p.Hit(Net, Blackout, strconv.Itoa(i), 0) {
				perTarget++
			}
			if v := p.Draw(UDP, Corrupt, "c", i, 8); v < 0 || v >= 8 {
				t.Fatalf("Draw = %d, outside [0, 8)", v)
			} else if v < 2 {
				low++
			}
		}
		within("per operation", perOp, share)
		within("per target", perTarget, share)
		within("draw", low, 0.25)
		if got := p.Injected(FS, WriteErr); got != int64(perOp) {
			t.Errorf("tally = %d, fired %d", got, perOp)
		}
	}
}

// TestWindowsAreExact: first-k and after-n x times fire on exactly their
// indexes, for exactly their targets and kinds.
func TestWindowsAreExact(t *testing.T) {
	p := New(3,
		Rule{Site: DNS, Kind: Timeout, Target: "www.example.com", P: 1, Times: 2},
		Rule{Site: Shard, Kind: Crash, Target: "1", P: 1, After: 40, Times: 2},
		Rule{Site: Net, Kind: Blackout, P: 0.5, Times: 3},
	)
	fired := func(site Site, kind Kind, target string) (at []int) {
		for n := 0; n < 100; n++ {
			if p.Hit(site, kind, target, n) {
				at = append(at, n)
			}
		}
		return at
	}
	for _, tc := range []struct {
		site   Site
		kind   Kind
		target string
		want   []int
	}{
		{DNS, Timeout, "www.example.com", []int{0, 1}},
		{Shard, Crash, "1", []int{40, 41}},
		{DNS, Timeout, "other.example.com", nil}, // pinned to another target
		{Shard, Panic, "1", nil},                 // another kind
	} {
		if got := fired(tc.site, tc.kind, tc.target); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s.%s for %q fired at %v, want %v", tc.site, tc.kind, tc.target, got, tc.want)
		}
	}
	// A share of targets: a selected target fails its whole window, an
	// unselected one never does.
	all, none := 0, 0
	for i := 0; i < 64; i++ {
		switch got := fired(Net, Blackout, strconv.Itoa(i)); {
		case got == nil:
			none++
		case reflect.DeepEqual(got, []int{0, 1, 2}):
			all++
		default:
			t.Errorf("address %d fails attempts %v, want all of 0-2 or none", i, got)
		}
	}
	if all == 0 || none == 0 {
		t.Errorf("share 0.5 of 64 addresses selected %d, spared %d", all, none)
	}
}
