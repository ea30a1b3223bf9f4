package analysis

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/scanner"
)

var t0 = time.Date(2023, 5, 15, 0, 0, 0, 0, time.UTC)

// mkConn builds a ConnResult with a clean spin square wave of the given
// period and the given stack samples.
func mkConn(period time.Duration, n int, stack ...time.Duration) *scanner.ConnResult {
	c := &scanner.ConnResult{QUIC: true, StackRTTs: stack}
	for i := 0; i < n; i++ {
		ob := core.Observation{T: t0.Add(time.Duration(i) * period), PN: uint64(i), Spin: i%2 == 1}
		c.Observations = append(c.Observations, ob)
		if ob.Spin {
			c.OnePkts++
		} else {
			c.ZeroPkts++
		}
	}
	return c
}

func TestAnalyzeConnSpin(t *testing.T) {
	c := mkConn(100*time.Millisecond, 6, 50*time.Millisecond, 60*time.Millisecond)
	a := AnalyzeConn(c)
	if a.Class != ClassSpin {
		t.Fatalf("class = %v", a.Class)
	}
	if a.SpinMeanR != 100*time.Millisecond || a.SpinMeanS != 100*time.Millisecond {
		t.Errorf("spin means = %v / %v", a.SpinMeanR, a.SpinMeanS)
	}
	if a.StackMean != 55*time.Millisecond {
		t.Errorf("stack mean = %v", a.StackMean)
	}
	if a.AbsR != 45*time.Millisecond {
		t.Errorf("abs = %v", a.AbsR)
	}
	want := float64(100) / 55
	if math.Abs(a.RatioR-want) > 1e-9 {
		t.Errorf("ratio = %v, want %v", a.RatioR, want)
	}
	if !a.HasAccuracy {
		t.Error("HasAccuracy false")
	}
}

func TestAnalyzeConnGreaseFilter(t *testing.T) {
	// Spin estimates of 1 ms against a stack min of 50 ms → grease.
	c := mkConn(time.Millisecond, 8, 50*time.Millisecond, 55*time.Millisecond)
	a := AnalyzeConn(c)
	if a.Class != ClassGrease {
		t.Fatalf("class = %v, want grease", a.Class)
	}
	// Same wave but stack min below the spin estimates → spin.
	c2 := mkConn(100*time.Millisecond, 8, 50*time.Millisecond)
	if got := AnalyzeConn(c2).Class; got != ClassSpin {
		t.Fatalf("class = %v, want spin", got)
	}
}

func TestAnalyzeConnFixedValues(t *testing.T) {
	zero := &scanner.ConnResult{QUIC: true, ZeroPkts: 5}
	if got := AnalyzeConn(zero).Class; got != ClassAllZero {
		t.Errorf("class = %v", got)
	}
	one := &scanner.ConnResult{QUIC: true, OnePkts: 5}
	if got := AnalyzeConn(one).Class; got != ClassAllOne {
		t.Errorf("class = %v", got)
	}
	empty := &scanner.ConnResult{}
	if got := AnalyzeConn(empty).Class; got != ClassNone {
		t.Errorf("class = %v", got)
	}
}

func TestAnalyzeConnUnderestimationRatioNegative(t *testing.T) {
	// Spin mean 50 ms vs stack mean 100 ms → ratio −2.
	c := mkConn(50*time.Millisecond, 6, 100*time.Millisecond)
	a := AnalyzeConn(c)
	if math.Abs(a.RatioR+2) > 1e-9 {
		t.Errorf("ratio = %v, want -2", a.RatioR)
	}
	if a.AbsR != -50*time.Millisecond {
		t.Errorf("abs = %v, want -50ms", a.AbsR)
	}
}

func TestMappedRatio(t *testing.T) {
	cases := []struct {
		spin, stack time.Duration
		want        float64
	}{
		{100, 100, 1},
		{300, 100, 3},
		{100, 300, -3},
		{0, 100, 0},
		{100, 0, 0},
	}
	for _, c := range cases {
		if got := mappedRatio(c.spin, c.stack); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("mappedRatio(%d, %d) = %v, want %v", c.spin, c.stack, got, c.want)
		}
	}
}

func TestDomainClassPriorities(t *testing.T) {
	cases := []struct {
		conns []Conn
		want  Class
	}{
		{[]Conn{{Class: ClassAllZero}, {Class: ClassSpin}}, ClassSpin},
		{[]Conn{{Class: ClassGrease}, {Class: ClassAllZero}}, ClassGrease},
		{[]Conn{{Class: ClassAllZero}, {Class: ClassAllOne}}, ClassAllOne},
		{[]Conn{{Class: ClassAllZero}}, ClassAllZero},
		{[]Conn{{Class: ClassNone}}, ClassNone},
		{nil, ClassNone},
		{[]Conn{{Class: ClassGrease}, {Class: ClassSpin}}, ClassSpin},
	}
	for i, c := range cases {
		if got := DomainClass(c.conns); got != c.want {
			t.Errorf("case %d: DomainClass = %v, want %v", i, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassAllZero: "All Zero", ClassAllOne: "All One",
		ClassSpin: "Spin", ClassGrease: "Grease", ClassNone: "None",
	} {
		if c.String() != want {
			t.Errorf("Class(%d) = %q", int(c), c.String())
		}
	}
}

func TestRFCShares(t *testing.T) {
	s16 := rfcShares(12, 16)
	var sum float64
	for _, v := range s16 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("RFC 9000 shares sum = %v", sum)
	}
	// P[12 of 12] = (15/16)^12 ≈ 0.4610.
	if math.Abs(s16[12]-math.Pow(15.0/16, 12)) > 1e-9 {
		t.Errorf("P[12/12] = %v", s16[12])
	}
	// 1/8 disabling spins less often in all weeks than 1/16.
	s8 := rfcShares(12, 8)
	if s8[12] >= s16[12] {
		t.Errorf("s8[12]=%v >= s16[12]=%v", s8[12], s16[12])
	}
}

func TestLongitudinallySynthetic(t *testing.T) {
	// Build three weeks over four domains:
	// d0: spins every week; d1: spins week 1 only (QUIC all weeks);
	// d2: never spins; d3: spins but loses QUIC in week 3.
	f := newLongFold()
	addWeek := func(classes []Class, quic []bool) {
		for i := range classes {
			src := &scanner.DomainResult{Domain: fmt.Sprintf("d%d", i), Conns: nil}
			if quic[i] {
				src.Conns = []scanner.ConnResult{{QUIC: true}}
			}
			f.add(&DomainAnalysis{Src: src, Class: classes[i]})
		}
	}
	addWeek([]Class{ClassSpin, ClassSpin, ClassAllZero, ClassSpin}, []bool{true, true, true, true})
	addWeek([]Class{ClassSpin, ClassAllZero, ClassAllZero, ClassSpin}, []bool{true, true, true, true})
	addWeek([]Class{ClassSpin, ClassAllZero, ClassAllZero, ClassNone}, []bool{true, true, true, false})
	l := f.finish(3)
	if l.EverSpun != 3 {
		t.Errorf("EverSpun = %d, want 3", l.EverSpun)
	}
	if l.Considered != 2 {
		t.Errorf("Considered = %d, want 2 (d3 lost QUIC)", l.Considered)
	}
	if l.Share[3] != 0.5 || l.Share[1] != 0.5 {
		t.Errorf("shares = %v", l.Share)
	}
}

func TestReorderingImpact(t *testing.T) {
	// One conn with R==S, one where sorting improves the estimate.
	same := Conn{Class: ClassSpin, HasAccuracy: true, SpinMeanR: 100, SpinMeanS: 100, AbsR: 50, AbsS: 50}
	better := Conn{Class: ClassSpin, HasAccuracy: true,
		SpinMeanR: 100, SpinMeanS: 100 - time.Duration(500)*time.Microsecond,
		AbsR: 10 * time.Millisecond, AbsS: 9 * time.Millisecond}
	var r ReorderingImpact
	r.observe(&same)
	r.observe(&better)
	if r.Conns != 2 || r.Differing != 1 || r.Sub1ms != 1 || r.Improved != 1 {
		t.Errorf("impact = %+v", r)
	}
}

// TestNilResolverAttributesUnknown pins analysis without an asdb snapshot
// (spinalyze without -asdb): a QUIC connection in the com/net/org view
// reaches the Table 2 fold, which must bucket it under "<unknown>" instead
// of dereferencing the missing resolver.
func TestNilResolverAttributesUnknown(t *testing.T) {
	conn := *mkConn(40*time.Millisecond, 6, 40*time.Millisecond)
	conn.IP = netip.MustParseAddr("198.51.100.7")
	res := &scanner.Result{Week: 3, Domains: []scanner.DomainResult{{
		Domain: "example.com", TLD: "com", Resolved: true, Conns: []scanner.ConnResult{conn},
	}}}
	a := NewAccumulator(res.Week, res.IPv6, nil).AddResult(res)
	rows := a.orgs.finish(8)
	if len(rows) != 1 || rows[0].Org != "<unknown>" || rows[0].TotalConns != 1 || rows[0].SpinConns != 1 {
		t.Errorf("org rows = %+v, want one <unknown> row with the spinning connection", rows)
	}
	if got := a.OverviewRows()[2]; got.QUICDomains != 1 || got.SpinDomains != 1 {
		t.Errorf("com/net/org overview = %+v", got)
	}
}
