package analysis

import (
	"encoding/binary"
	"net/netip"
	"sort"
	"time"

	"quicspin/internal/asdb"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
	"quicspin/internal/stats"
)

// Fold objects: each aggregate's per-domain increment. The folds ARE the
// aggregation logic; the Accumulator merely drives every fold over each
// delivered domain.

// ipBits is one connection IP's state in every overview view (at most
// eight): for view v, bit v says the view saw the IP, bit ipQUICShift+v
// that it carried a QUIC connection there, and bit ipSpinShift+v a spinning
// one.
type ipBits uint32

const (
	ipQUICShift = 8
	ipSpinShift = 16
)

// view returns the IP's flags in view v.
func (b ipBits) view(v int) (seen, quic, spin bool) {
	return b>>v&1 != 0, b>>(ipQUICShift+v)&1 != 0, b>>(ipSpinShift+v)&1 != 0
}

// ipFlags returns the flags of a connection seen in every view of mask.
func ipFlags(mask ipBits, quic, spin bool) ipBits {
	b := mask
	if quic {
		b |= mask << ipQUICShift
	}
	if spin {
		b |= mask << ipSpinShift
	}
	return b
}

// ipTable is an accumulator's per-IP state, the ipBits of every
// connection IP of the overview views. An IPv4 address (after unmapping),
// every address of an IPv4 scan, keys its map by its 32 bits, which hash
// and compare faster than a netip.Addr; any other address keys a map by
// itself.
type ipTable struct {
	v4    map[uint32]ipBits
	other map[netip.Addr]ipBits
}

func newIPTable() ipTable {
	return ipTable{v4: map[uint32]ipBits{}, other: map[netip.Addr]ipBits{}}
}

// or adds the flags b to ip's. An IPv4-mapped address is its IPv4 address:
// one host, one key, one canonical text in the codec.
func (t ipTable) or(ip netip.Addr, b ipBits) {
	ip = ip.Unmap()
	if ip.Is4() {
		a := ip.As4()
		t.v4[binary.BigEndian.Uint32(a[:])] |= b
		return
	}
	t.other[ip] |= b
}

// each calls f with every IP of the table and its flags, in no order.
func (t ipTable) each(f func(ip netip.Addr, b ipBits)) {
	for k, b := range t.v4 {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], k)
		f(netip.AddrFrom4(a), b)
	}
	for ip, b := range t.other {
		f(ip, b)
	}
}

// len returns the number of IPs in the table.
func (t ipTable) len() int { return len(t.v4) + len(t.other) }

// merge adds o's flags to t's.
func (t ipTable) merge(o ipTable) {
	for k, b := range o.v4 {
		t.v4[k] |= b
	}
	for ip, b := range o.other {
		t.other[ip] |= b
	}
}

// overviewFold accumulates the per-domain counters of one Table 1/4 row;
// the per-IP ones come from the accumulator's one ipTable (addIPs).
type overviewFold struct{ row OverviewRow }

func newOverviewFold(v View) *overviewFold {
	return &overviewFold{row: OverviewRow{Label: v.Label}}
}

// add counts a domain of the row's view and reports whether its connection
// IPs belong to the view: whether it resolved.
func (f *overviewFold) add(da *DomainAnalysis) bool {
	d := da.Src
	f.row.TotalDomains++
	if !d.Resolved {
		return false
	}
	f.row.ResolvedDomains++
	if d.QUIC() {
		f.row.QUICDomains++
	}
	if da.Class == ClassSpin {
		f.row.SpinDomains++
	}
	return true
}

// addIPs writes each connection IP of the domain into the table once, in
// every view of mask.
func addIPs(ips ipTable, da *DomainAnalysis, mask ipBits) {
	conns := da.Src.Conns
	for j := range conns {
		if c := &conns[j]; c.IP.IsValid() {
			ips.or(c.IP, ipFlags(mask, c.QUIC, da.Conns[j].Class == ClassSpin))
		}
	}
}

// configFold accumulates one Table 3 row.
type configFold struct{ row ConfigRow }

func newConfigFold(v View) *configFold {
	return &configFold{row: ConfigRow{Label: v.Label}}
}

// add counts a domain of the row's view.
func (f *configFold) add(da *DomainAnalysis) {
	if !da.Src.QUIC() {
		return
	}
	f.row.QUICDomains++
	switch da.Class {
	case ClassAllZero:
		f.row.AllZero++
	case ClassAllOne:
		f.row.AllOne++
	case ClassSpin:
		f.row.Spin++
	case ClassGrease:
		f.row.Grease++
	default:
		f.row.None++
	}
}

// orgFold accumulates Table 2 per-organisation connection counts.
type orgFold struct {
	v      View
	res    *asdb.Resolver
	totals map[string]*OrgRow
}

func newOrgFold(v View, res *asdb.Resolver) *orgFold {
	return &orgFold{v: v, res: res, totals: map[string]*OrgRow{}}
}

func (f *orgFold) add(da *DomainAnalysis) {
	if !f.v.Match(da.Src) {
		return
	}
	for j := range da.Src.Conns {
		c := &da.Src.Conns[j]
		if !c.QUIC {
			continue
		}
		org := f.res.OrgOf(c.IP)
		r := f.totals[org]
		if r == nil {
			r = &OrgRow{Org: org}
			f.totals[org] = r
		}
		r.TotalConns++
		if da.Conns[j].Class == ClassSpin || da.Conns[j].Class == ClassGrease {
			// Table 2 counts "connections with some spin bit activity".
			r.SpinConns++
		}
	}
}

// finish ranks organisations by connection count, merging the tail beyond
// topN into "<other>". Idempotent.
func (f *orgFold) finish(topN int) []OrgRow {
	rows := make([]OrgRow, 0, len(f.totals))
	for _, r := range f.totals {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalConns != rows[j].TotalConns {
			return rows[i].TotalConns > rows[j].TotalConns
		}
		return rows[i].Org < rows[j].Org
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
	// Spin ranks over the full set.
	bySpin := make([]int, len(rows))
	for i := range bySpin {
		bySpin[i] = i
	}
	sort.Slice(bySpin, func(a, b int) bool {
		return rows[bySpin[a]].SpinConns > rows[bySpin[b]].SpinConns
	})
	for rank, idx := range bySpin {
		if rows[idx].SpinConns > 0 {
			rows[idx].SpinRank = rank + 1
		}
	}
	if len(rows) <= topN {
		return rows
	}
	other := OrgRow{Org: "<other>"}
	for _, r := range rows[topN:] {
		other.TotalConns += r.TotalConns
		other.SpinConns += r.SpinConns
	}
	return append(rows[:topN:topN], other)
}

// softwareFold accumulates the §4.2 Server-header attribution: QUIC
// connections by Server header for one view, restricted — like the paper —
// to connections where the header could be matched unambiguously (a
// response was received).
type softwareFold struct {
	v   View
	agg map[string]*SoftwareRow
}

func newSoftwareFold(v View) *softwareFold {
	return &softwareFold{v: v, agg: map[string]*SoftwareRow{}}
}

func (f *softwareFold) add(da *DomainAnalysis) {
	if !f.v.Match(da.Src) {
		return
	}
	for j := range da.Src.Conns {
		c := &da.Src.Conns[j]
		if !c.QUIC || c.Server == "" {
			continue
		}
		r := f.agg[c.Server]
		if r == nil {
			r = &SoftwareRow{Software: c.Server}
			f.agg[c.Server] = r
		}
		r.Conns++
		if da.Conns[j].Class == ClassSpin || da.Conns[j].Class == ClassGrease {
			r.SpinConns++
		}
	}
}

// finish orders rows by spinning connections. Idempotent.
func (f *softwareFold) finish() []SoftwareRow {
	rows := make([]SoftwareRow, 0, len(f.agg))
	for _, r := range f.agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SpinConns != rows[j].SpinConns {
			return rows[i].SpinConns > rows[j].SpinConns
		}
		if rows[i].Conns != rows[j].Conns {
			return rows[i].Conns > rows[j].Conns
		}
		return rows[i].Software < rows[j].Software
	})
	return rows
}

// errorClassFold accumulates the Table 5 error-class breakdown from the
// class and profile each connection carries. classes is indexed by class
// (ClassNone's entry stays 0); profiles stays a map, because hostile
// connections are a small minority.
type errorClassFold struct {
	total    int
	classes  [resilience.ClassOther + 1]int
	profiles map[hostile.Profile]int
}

func newErrorClassFold() *errorClassFold {
	return &errorClassFold{profiles: map[hostile.Profile]int{}}
}

func (f *errorClassFold) add(d *scanner.DomainResult) {
	f.total += len(d.Conns)
	for j := range d.Conns {
		c := &d.Conns[j]
		if c.ErrClass == resilience.ClassNone {
			continue
		}
		f.classes[c.ErrClass]++
		if c.ErrClass == resilience.ClassHostile {
			f.profiles[c.Hostile]++
		}
	}
}

// longTrack is one domain's cross-week spin history (Fig. 2).
type longTrack struct {
	everSpun  bool
	quicWeeks int
	spinWeeks int
}

// longFold accumulates the Fig. 2 compliance histogram across weeks. It
// retains one small record per domain that spoke QUIC in some week — the
// irreducible state of a cross-week join — but no per-domain scan rows. A
// domain without a QUIC week can never spin, so finish would never read its
// record; such a domain gets none.
type longFold struct {
	domains map[string]*longTrack
	// free is the unused tail of the current track slab: tracks are handed
	// out of 512-record blocks, so a fold, a merge and a decode each cost one
	// allocation per block instead of one per domain.
	free []longTrack
}

func newLongFold() *longFold { return &longFold{domains: map[string]*longTrack{}} }

// track returns the record for a domain name, adding a zero one if needed.
func (f *longFold) track(name string) *longTrack {
	t := f.domains[name]
	if t == nil {
		if len(f.free) == 0 {
			f.free = make([]longTrack, 512)
		}
		t, f.free = &f.free[0], f.free[1:]
		f.domains[name] = t
	}
	return t
}

// add folds one domain of one week; call it once per (domain, week).
func (f *longFold) add(da *DomainAnalysis) {
	quic := da.Src.QUIC()
	if !quic && da.Class != ClassSpin {
		return
	}
	t := f.track(da.Src.Domain)
	if quic {
		t.quicWeeks++
	}
	if da.Class == ClassSpin {
		t.everSpun = true
		t.spinWeeks++
	}
}

// finish computes the Fig. 2 dataset for an n-week campaign. Idempotent.
func (f *longFold) finish(n int) Longitudinal {
	out := Longitudinal{Weeks: n}
	if n == 0 {
		return out
	}
	counts := make([]int, n+1)
	for _, t := range f.domains {
		if !t.everSpun {
			continue
		}
		out.EverSpun++
		if t.quicWeeks < n {
			continue // no working connection in every week (§4.3)
		}
		out.Considered++
		counts[t.spinWeeks]++
	}
	out.Share = make([]float64, n+1)
	for k := range counts {
		if out.Considered > 0 {
			out.Share[k] = float64(counts[k]) / float64(out.Considered)
		}
	}
	out.RFC9000 = rfcShares(n, 16)
	out.RFC9312 = rfcShares(n, 8)
	return out
}

// accuracySets enumerates the four Fig. 3/4 panels in render order.
var accuracySets = [4]AccuracySet{
	{Class: ClassSpin},
	{Class: ClassSpin, Sorted: true},
	{Class: ClassGrease},
	{Class: ClassGrease, Sorted: true},
}

var accuracySetNames = [4]string{"Spin (R)", "Spin (S)", "Grease (R)", "Grease (S)"}

// accuracyFold accumulates the Fig. 3/4 histograms and the §5.2 headline
// counters.
type accuracyFold struct {
	abs   [4]*stats.Histogram
	ratio [4]*stats.Histogram

	n                             int
	over, w25, o200, w125, w2, o3 int
}

func newAccuracyFold() *accuracyFold {
	f := &accuracyFold{}
	for i := range f.abs {
		f.abs[i] = stats.NewHistogram(Fig3Edges)
		f.ratio[i] = stats.NewHistogram(Fig4Edges)
	}
	return f
}

func (f *accuracyFold) add(da *DomainAnalysis) {
	for j := range da.Conns {
		c := &da.Conns[j]
		if !c.HasAccuracy {
			continue
		}
		for si, set := range accuracySets {
			if c.Class != set.Class {
				continue
			}
			d, r := c.AbsR, c.RatioR
			if set.Sorted {
				d, r = c.AbsS, c.RatioS
			}
			f.abs[si].Add(float64(d) / float64(time.Millisecond))
			f.ratio[si].Add(r)
		}
		if c.Class == ClassSpin {
			f.observeHeadline(c)
		}
	}
}

func (f *accuracyFold) observeHeadline(c *Conn) {
	f.n++
	if c.AbsR > 0 {
		f.over++
	}
	absMs := float64(c.AbsR) / 1e6
	if absMs >= -25 && absMs <= 25 {
		f.w25++
	}
	if absMs > 200 {
		f.o200++
	}
	r := c.RatioR
	if r >= -1.25 && r <= 1.25 {
		f.w125++
	}
	if r >= -2 && r <= 2 {
		f.w2++
	}
	if r > 3 || r < -3 {
		f.o3++
	}
}

// merge adds another fold's counts into f (for campaign-level accuracy
// figures across weekly accumulators).
func (f *accuracyFold) merge(o *accuracyFold) {
	for i := range f.abs {
		mergeHistogram(f.abs[i], o.abs[i])
		mergeHistogram(f.ratio[i], o.ratio[i])
	}
	f.n += o.n
	f.over += o.over
	f.w25 += o.w25
	f.o200 += o.o200
	f.w125 += o.w125
	f.w2 += o.w2
	f.o3 += o.o3
}

func mergeHistogram(dst, src *stats.Histogram) {
	for i := range dst.Counts {
		dst.Counts[i] += src.Counts[i]
	}
	dst.Underflow += src.Underflow
	dst.Overflow += src.Overflow
	dst.N += src.N
}

// headlines finalises the §5.2 shares. Idempotent.
func (f *accuracyFold) headlines() AccuracyHeadlines {
	h := AccuracyHeadlines{N: f.n}
	if h.N == 0 {
		return h
	}
	n := float64(h.N)
	h.OverestimateShare = float64(f.over) / n
	h.Within25ms = float64(f.w25) / n
	h.Over200ms = float64(f.o200) / n
	h.Within25pct = float64(f.w125) / n
	h.Within2x = float64(f.w2) / n
	h.Over3x = float64(f.o3) / n
	return h
}

// histAt returns the panel histogram for figure fig (3 = abs, 4 = ratio).
func (f *accuracyFold) histAt(fig, i int) *stats.Histogram {
	if fig == 3 {
		return f.abs[i]
	}
	return f.ratio[i]
}
