// Package fault is the one place that decides whether an injected fault
// fires. A Plan is a seed plus rules of the shape where (site, optionally
// one exact target), what (kind) and when (a share of targets or
// operations, the first k attempts, after n operations, x times). Every
// layer that can be faulted — the DNS resolver, both scan engines, the
// campaign loop, the UDP exchange, the journal's filesystem, the shard
// supervisor — keeps a thin adapter that asks the plan; none owns a seed,
// an rng or a counter.
//
// The decision is a pure function of (seed, rule, target, index): a
// splitmix-style hash compared against the rule's share, inside the rule's
// window, so it does not depend on call order, worker count or goroutine
// scheduling. The plan also holds the little state injection needs: one
// operation counter per site (for layers whose operations carry no index
// of their own) and one "injected" tally per rule.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site is the layer a rule applies to; Kind is what it does there. Their
// values are the names the spec grammar uses.
type (
	Site string
	Kind string
)

const (
	DNS   Site = "dns"   // target: normalized name; index: retry attempt
	Net   Site = "net"   // target: server address; index: retry attempt
	Scan  Site = "scan"  // interrupt: index = completed domains; panic: target = domain
	UDP   Site = "udp"   // target: socket label; index: site operation
	FS    Site = "fs"    // target: file base name; index: site operation
	Shard Site = "shard" // target: shard index; index: delivered domains

	AnyKind    Kind = "" // Injected only: every kind of the site
	Timeout    Kind = "timeout"
	Blackout   Kind = "blackout"
	Interrupt  Kind = "interrupt"
	Panic      Kind = "panic"
	Drop       Kind = "drop"
	Dup        Kind = "dup"
	Corrupt    Kind = "corrupt"
	Delay      Kind = "delay"
	ShortWrite Kind = "short-write"
	WriteErr   Kind = "write-err"
	SyncErr    Kind = "sync-err"
	OpenErr    Kind = "open-err"
	Crash      Kind = "crash"
)

// kinds is the vocabulary: which faults each site knows.
var kinds = map[Site][]Kind{
	DNS:   {Timeout},
	Net:   {Blackout},
	Scan:  {Interrupt, Panic},
	UDP:   {Drop, Dup, Corrupt, Delay},
	FS:    {ShortWrite, WriteErr, SyncErr, OpenErr},
	Shard: {Crash, Panic},
}

// Rule is one where/what/when clause.
type Rule struct {
	Site Site
	Kind Kind
	// Target restricts the rule to one exact target; empty means any.
	Target string
	// P is the share in [0, 1]: of operations for an unwindowed rule
	// (Times == 0, every index rolls its own die), of targets for a
	// windowed one (a selected target fails its whole window).
	P float64
	// After leaves the first After operations (or attempts) untouched.
	After int
	// Times closes the window after that many indexes; zero leaves it
	// open. "First k attempts" is After 0, Times k; "after n, x times" is
	// After n, Times x.
	Times int
}

// Plan is a seeded set of rules, safe for concurrent use. The nil plan
// injects nothing: Hit and Rules are nil-safe, which is all a layer
// without faults ever calls.
type Plan struct {
	seed int64
	// MaxDelay bounds how long a udp.delay holds a datagram back.
	MaxDelay time.Duration
	// maxDelayGiven records that the spec set MaxDelay (udp.max-delay).
	maxDelayGiven bool

	rules    []Rule
	injected []atomic.Int64 // per rule
	ops      map[Site]*atomic.Int64
}

// New builds a plan from rules.
func New(seed int64, rules ...Rule) *Plan {
	p := &Plan{seed: seed, MaxDelay: 25 * time.Millisecond, rules: rules, ops: map[Site]*atomic.Int64{}}
	for site := range kinds {
		p.ops[site] = new(atomic.Int64)
	}
	p.injected = make([]atomic.Int64, len(rules))
	return p
}

// MaxDelayGiven reports whether the spec the plan was parsed from set
// udp.max-delay: a setting, not a rule, so Rules does not show it.
func (p *Plan) MaxDelayGiven() bool { return p != nil && p.maxDelayGiven }

// Rules returns the plan's rules; callers must not modify them.
func (p *Plan) Rules() []Rule {
	if p == nil {
		return nil
	}
	return p.rules
}

// Next returns the next 0-based operation index of site, for layers whose
// operations have no index of their own (datagrams, file operations,
// completed domains). One operation asks once and passes the index to
// every Hit and Draw it makes.
func (p *Plan) Next(site Site) int { return int(p.ops[site].Add(1)) - 1 }

// Hit reports whether a fault of the given kind fires at (target, n),
// where n is the attempt or operation index, and tallies it when it does.
func (p *Plan) Hit(site Site, kind Kind, target string, n int) bool {
	for i, r := range p.Rules() {
		if r.Site != site || r.Kind != kind || (r.Target != "" && r.Target != target) || n < r.After {
			continue
		}
		key := uint64(n)
		if r.Times > 0 {
			if n >= r.After+r.Times {
				continue
			}
			key = perTarget
		}
		if r.P >= 1 || float64(p.hash(i, target, key)>>11)/(1<<53) < r.P {
			p.injected[i].Add(1)
			return true
		}
	}
	return false
}

// Draw returns a value in [0, max) that is a pure function of the same
// key as Hit: the detail of a fault that fired (which bit flips, how much
// of a write lands, how long a datagram is held). max <= 0 draws 0.
func (p *Plan) Draw(site Site, kind Kind, target string, n, max int) int {
	if max <= 0 {
		return 0
	}
	return int(p.hash(-1, string(site)+"."+string(kind)+":"+target, uint64(n)) % uint64(max))
}

// Injected returns how many faults of kind (AnyKind: of any kind) the plan
// has fired at site.
func (p *Plan) Injected(site Site, kind Kind) (n int64) {
	for i, r := range p.rules {
		if r.Site == site && (kind == AnyKind || r.Kind == kind) {
			n += p.injected[i].Load()
		}
	}
	return n
}

// perTarget keys the die of a windowed rule on the target alone.
const perTarget = ^uint64(0)

// hash mixes (seed, salt, target, key) with the splitmix64 finalizer; salt
// is the rule index (-1 for Draw), so two rules of one site and kind
// select independent shares.
func (p *Plan) hash(salt int, target string, key uint64) uint64 {
	h := mix(uint64(p.seed) ^ uint64(int64(salt))*0x9e3779b97f4a7c15)
	for i := 0; i < len(target); i++ {
		h = (h ^ uint64(target[i])) * 1099511628211
	}
	return mix(mix(h) ^ key)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Parse reads a fault spec: comma-separated directives, `site.kind:when`
// for every pair in the vocabulary above, plus
//
//	seed:N             decision seed (default 1)
//	udp.max-delay:DUR  bound of a udp.delay hold-back (default 25ms)
//
// `when` is N[xT] for scan.interrupt and S@N[xT] for the kinds of shard S —
// after N operations, T times (default 1) — and [T@]P[/K] for everything
// else: a share P, drawn per operation, or with /K per target, which then
// fails its first K attempts. T@ pins a rule to one exact target (a name,
// an address, a file). An empty spec returns a nil plan.
func Parse(spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	p := New(1)
	for _, item := range strings.Split(spec, ",") {
		if want := p.parseItem(strings.TrimSpace(item)); want != "" {
			return nil, fmt.Errorf("fault: %q: want %s", item, want)
		}
	}
	p.injected = make([]atomic.Int64, len(p.rules))
	return p, nil
}

// parseItem adds one directive to the plan; on a malformed one it returns
// what it wanted instead.
func (p *Plan) parseItem(item string) (want string) {
	name, arg, _ := strings.Cut(item, ":")
	switch {
	case arg == "":
		return "name:value"
	case name == "seed":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return "an integer seed"
		}
		p.seed = n
		return ""
	case name == "udp.max-delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return "a positive duration"
		}
		p.MaxDelay, p.maxDelayGiven = d, true
		return ""
	}
	site, kind, _ := strings.Cut(name, ".")
	r := Rule{Site: Site(site), Kind: Kind(kind), P: 1}
	known := false
	for _, k := range kinds[r.Site] {
		known = known || k == r.Kind
	}
	if !known {
		return "a known site.kind directive"
	}
	if i := strings.LastIndexByte(arg, '@'); i >= 0 {
		if r.Target, arg = arg[:i], arg[i+1:]; r.Target == "" {
			return "a target before @"
		}
	}
	atoi := func(s string, min int) (int, bool) {
		n, err := strconv.Atoi(s)
		return n, err == nil && n >= min
	}
	afterN, sep := r.Kind == Interrupt || r.Site == Shard, "/"
	if afterN {
		sep = "x"
	}
	num, times, windowed := strings.Cut(arg, sep)
	var ok bool
	if r.Times, ok = atoi(times, 1); windowed && !ok {
		return "a positive count after " + sep
	}
	if !afterN {
		var err error
		if r.P, err = strconv.ParseFloat(num, 64); err != nil || !(r.P >= 0 && r.P <= 1) {
			return "a share in [0, 1]"
		}
	} else if r.After, ok = atoi(num, 0); !ok {
		return "a non-negative operation count"
	} else if _, ok = atoi(r.Target, 0); r.Site == Shard && !ok {
		return "shard@operations with a non-negative shard index"
	} else if r.Site == Scan && r.Target != "" {
		return "an operation count without a target"
	} else if !windowed {
		r.Times = 1
	}
	p.rules = append(p.rules, r)
	return ""
}
