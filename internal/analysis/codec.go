package analysis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"quicspin/internal/asdb"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/stats"
)

// Serialized accumulators (wire format version 1).
//
// The encoding is for accumulator state that leaves the process, and for
// byte-level digests of a fold: the shard runner's ranges are goroutines of
// one process and merge in memory, never through these bytes. It is:
//
//   - compact: uvarint counters, no field names, histogram bin edges are
//     implied by the analysis constants (Fig3Edges/Fig4Edges);
//   - canonical: every map serializes in sorted key order and the decoder
//     rejects out-of-order or duplicate keys, an IP key that is not its
//     address's own text, and a longitudinal entry without a QUIC week, so
//     Marshal is a pure function of the fold state and
//     Marshal→Unmarshal→Marshal is byte-stable;
//   - hostile-proof: the decoder bounds every allocation by the remaining
//     input size and rejects truncated, trailing or inconsistent bytes with
//     an error — never a panic (FuzzAccumulatorUnmarshal pins this);
//   - versioned: a two-byte magic plus a version byte, so a future format
//     change fails loudly against old workers instead of misdecoding.
//
// Layout: "qs" version kind body, where kind is 'W' (one week accumulator)
// or 'C' (a campaign: the longitudinal fold plus every week body in
// (Week, IPv6) order). Derivable state (per-IP counts, ranks, histogram
// totals, everSpun flags) is never serialized — finish() recomputes it.

const (
	codecMagic0  = 'q'
	codecMagic1  = 's'
	codecVersion = 1

	kindWeek     byte = 'W'
	kindCampaign byte = 'C'
)

// ipFlagQUIC/ipFlagSpin encode one IP's flags in one view.
const (
	ipFlagQUIC = 1
	ipFlagSpin = 2
)

// --- encoder ------------------------------------------------------------

type codecEnc struct{ b []byte }

func newCodecEnc(kind byte) *codecEnc {
	return &codecEnc{b: append(make([]byte, 0, 1024), codecMagic0, codecMagic1, codecVersion, kind)}
}

func (e *codecEnc) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// count encodes a non-negative fold counter.
func (e *codecEnc) count(v int) { e.uint(uint64(v)) }

func (e *codecEnc) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *codecEnc) flag(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// --- decoder ------------------------------------------------------------

type codecDec struct{ b []byte }

func decErr(format string, args ...any) error {
	return fmt.Errorf("analysis: unmarshal: "+format, args...)
}

func (d *codecDec) uint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, decErr("truncated or oversized varint")
	}
	d.b = d.b[n:]
	return v, nil
}

// count decodes a non-negative counter that must fit in an int.
func (d *codecDec) count() (int, error) {
	v, err := d.uint()
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, decErr("counter %d overflows int", v)
	}
	return int(v), nil
}

// length decodes a collection length whose entries occupy at least min
// bytes each, bounding attacker-driven allocations by the input size.
func (d *codecDec) length(min int) (int, error) {
	n, err := d.count()
	if err != nil {
		return 0, err
	}
	if n*min > len(d.b) || n < 0 || n*min < 0 {
		return 0, decErr("length %d exceeds remaining input", n)
	}
	return n, nil
}

func (d *codecDec) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	if n > len(d.b) {
		return "", decErr("string length %d exceeds remaining input", n)
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *codecDec) flag() (bool, error) {
	if len(d.b) == 0 {
		return false, decErr("truncated flag")
	}
	v := d.b[0]
	if v > 1 {
		return false, decErr("flag byte %d is not 0 or 1", v)
	}
	d.b = d.b[1:]
	return v == 1, nil
}

func codecHeader(data []byte) (*codecDec, byte, error) {
	if len(data) < 4 {
		return nil, 0, decErr("input shorter than the header")
	}
	if data[0] != codecMagic0 || data[1] != codecMagic1 {
		return nil, 0, decErr("bad magic %q", data[:2])
	}
	if data[2] != codecVersion {
		return nil, 0, decErr("unsupported version %d (want %d)", data[2], codecVersion)
	}
	return &codecDec{b: data[4:]}, data[3], nil
}

// --- week accumulator ---------------------------------------------------

// Marshal serializes the accumulator's aggregate state (wire format
// version 1). The campaign longitudinal fold is campaign-owned and not
// included — serialize the CampaignAccumulator to carry it.
func (a *Accumulator) Marshal() []byte {
	e := newCodecEnc(kindWeek)
	encodeAccBody(e, a)
	return e.b
}

// UnmarshalAccumulator decodes a week accumulator serialized by Marshal.
// res resolves IPs to organisations for further Adds into the decoded
// accumulator (pass the world's resolver, as with NewAccumulator); decoding
// itself never consults it. Hostile input yields an error, never a panic.
func UnmarshalAccumulator(data []byte, res *asdb.Resolver) (*Accumulator, error) {
	d, kind, err := codecHeader(data)
	if err != nil {
		return nil, err
	}
	if kind != kindWeek {
		return nil, decErr("kind %q is not a week accumulator", kind)
	}
	a, err := decodeAccBody(d, res)
	if err != nil {
		return nil, err
	}
	if len(d.b) != 0 {
		return nil, decErr("%d trailing bytes", len(d.b))
	}
	return a, nil
}

func encodeAccBody(e *codecEnc, a *Accumulator) {
	e.count(a.Week)
	e.flag(a.IPv6)
	e.count(len(a.views))
	ips, text := sortedIPs(a.ips)
	for i, v := range a.views {
		e.str(v.Label)
		ov := &a.overview[i].row
		e.count(ov.TotalDomains)
		e.count(ov.ResolvedDomains)
		e.count(ov.QUICDomains)
		e.count(ov.SpinDomains)
		encodeIPStates(e, ips, text, i)
		cf := &a.config[i].row
		e.count(cf.QUICDomains)
		e.count(cf.AllZero)
		e.count(cf.AllOne)
		e.count(cf.Spin)
		e.count(cf.Grease)
		e.count(cf.None)
	}
	encodeOrgTotals(e, a.orgs.totals)
	encodeSoftware(e, a.software.agg)
	encodeErrors(e, a.errs)
	encodeAccuracy(e, a.acc)
}

func decodeAccBody(d *codecDec, res *asdb.Resolver) (*Accumulator, error) {
	week, err := d.count()
	if err != nil {
		return nil, err
	}
	ipv6, err := d.flag()
	if err != nil {
		return nil, err
	}
	a := NewAccumulator(week, ipv6, res)
	nv, err := d.count()
	if err != nil {
		return nil, err
	}
	if nv != len(a.views) {
		return nil, decErr("view count %d (want %d)", nv, len(a.views))
	}
	for i := range a.views {
		label, err := d.str()
		if err != nil {
			return nil, err
		}
		if label != a.views[i].Label {
			return nil, decErr("view %d label %q (want %q)", i, label, a.views[i].Label)
		}
		ov := &a.overview[i].row
		if err := decodeCounts(d, &ov.TotalDomains, &ov.ResolvedDomains, &ov.QUICDomains, &ov.SpinDomains); err != nil {
			return nil, err
		}
		if err := decodeIPStates(d, a.ips, i); err != nil {
			return nil, err
		}
		cf := &a.config[i].row
		if err := decodeCounts(d, &cf.QUICDomains, &cf.AllZero, &cf.AllOne, &cf.Spin, &cf.Grease, &cf.None); err != nil {
			return nil, err
		}
	}
	if err := decodeOrgTotals(d, a.orgs.totals); err != nil {
		return nil, err
	}
	if err := decodeSoftware(d, a.software.agg); err != nil {
		return nil, err
	}
	if err := decodeErrors(d, a.errs); err != nil {
		return nil, err
	}
	if err := decodeAccuracy(d, a.acc); err != nil {
		return nil, err
	}
	return a, nil
}

func decodeCounts(d *codecDec, dst ...*int) error {
	for _, p := range dst {
		v, err := d.count()
		if err != nil {
			return err
		}
		*p = v
	}
	return nil
}

// ipText is one IP table entry with its address's text, a span of a shared
// buffer.
type ipText struct {
	lo, hi int
	b      ipBits
}

// sortedIPs returns the table's entries in the order of their addresses'
// text, which the codec writes, and the buffer holding the texts. Every
// text is appended to one buffer and the entries are sorted by their spans
// of it, so this costs no allocation per address.
func sortedIPs(ips ipTable) ([]ipText, []byte) {
	var text []byte
	ents := make([]ipText, 0, ips.len())
	ips.each(func(ip netip.Addr, b ipBits) {
		lo := len(text)
		text = ip.AppendTo(text)
		ents = append(ents, ipText{lo, len(text), b})
	})
	sort.Slice(ents, func(i, j int) bool {
		return bytes.Compare(text[ents[i].lo:ents[i].hi], text[ents[j].lo:ents[j].hi]) < 0
	})
	return ents, text
}

// encodeIPStates writes view v's per-IP set keyed by each address's text,
// in string order, from the table's sorted entries.
func encodeIPStates(e *codecEnc, ips []ipText, text []byte, v int) {
	n := 0
	for _, en := range ips {
		if seen, _, _ := en.b.view(v); seen {
			n++
		}
	}
	e.count(n)
	for _, en := range ips {
		seen, quic, spin := en.b.view(v)
		if !seen {
			continue
		}
		e.uint(uint64(en.hi - en.lo))
		e.b = append(e.b, text[en.lo:en.hi]...)
		var f byte
		if quic {
			f |= ipFlagQUIC
		}
		if spin {
			f |= ipFlagSpin
		}
		e.b = append(e.b, f)
	}
}

// decodeIPStates reads view v's per-IP set into the table.
func decodeIPStates(d *codecDec, ips ipTable, v int) error {
	n, err := d.length(3) // key length + ≥1 key byte + flags
	if err != nil {
		return err
	}
	prev := ""
	for i := 0; i < n; i++ {
		text, err := d.str()
		if err != nil {
			return err
		}
		if text == "" || (i > 0 && text <= prev) {
			return decErr("IP keys not strictly ascending (%q after %q)", text, prev)
		}
		prev = text
		// The fold keys unmapped addresses and writes the text AppendTo
		// gives, so any other spelling of an address is not canonical.
		ip, err := netip.ParseAddr(text)
		var canon [64]byte
		if err != nil || ip.Is4In6() || string(ip.AppendTo(canon[:0])) != text {
			return decErr("IP key %q is not a canonical address", text)
		}
		if len(d.b) == 0 {
			return decErr("truncated IP flags")
		}
		f := d.b[0]
		d.b = d.b[1:]
		// Flags 0 is a real state: an IP seen only on failed connection
		// attempts counts toward TotalIPs but neither QUICIPs nor SpinIPs.
		if f > ipFlagQUIC|ipFlagSpin {
			return decErr("bad IP flags %d", f)
		}
		ips.or(ip, ipFlags(1<<v, f&ipFlagQUIC != 0, f&ipFlagSpin != 0))
	}
	return nil
}

func encodeOrgTotals(e *codecEnc, totals map[string]*OrgRow) {
	keys := sortedKeys(totals)
	e.count(len(keys))
	for _, org := range keys {
		e.str(org)
		e.count(totals[org].TotalConns)
		e.count(totals[org].SpinConns)
	}
}

func decodeOrgTotals(d *codecDec, totals map[string]*OrgRow) error {
	n, err := d.length(3)
	if err != nil {
		return err
	}
	prev := ""
	for i := 0; i < n; i++ {
		org, err := d.str()
		if err != nil {
			return err
		}
		if org == "" || (i > 0 && org <= prev) {
			return decErr("org keys not strictly ascending (%q after %q)", org, prev)
		}
		prev = org
		r := &OrgRow{Org: org}
		if err := decodeCounts(d, &r.TotalConns, &r.SpinConns); err != nil {
			return err
		}
		if r.TotalConns == 0 || r.SpinConns > r.TotalConns {
			return decErr("org %q counts %d/%d are inconsistent", org, r.SpinConns, r.TotalConns)
		}
		totals[org] = r
	}
	return nil
}

func encodeSoftware(e *codecEnc, agg map[string]*SoftwareRow) {
	keys := sortedKeys(agg)
	e.count(len(keys))
	for _, sw := range keys {
		e.str(sw)
		e.count(agg[sw].Conns)
		e.count(agg[sw].SpinConns)
	}
}

func decodeSoftware(d *codecDec, agg map[string]*SoftwareRow) error {
	n, err := d.length(3)
	if err != nil {
		return err
	}
	prev := ""
	for i := 0; i < n; i++ {
		sw, err := d.str()
		if err != nil {
			return err
		}
		if sw == "" || (i > 0 && sw <= prev) {
			return decErr("software keys not strictly ascending (%q after %q)", sw, prev)
		}
		prev = sw
		r := &SoftwareRow{Software: sw}
		if err := decodeCounts(d, &r.Conns, &r.SpinConns); err != nil {
			return err
		}
		if r.Conns == 0 || r.SpinConns > r.Conns {
			return decErr("software %q counts %d/%d are inconsistent", sw, r.SpinConns, r.Conns)
		}
		agg[sw] = r
	}
	return nil
}

func encodeErrors(e *codecEnc, f *errorClassFold) {
	e.count(f.total)
	n := 0
	for _, c := range f.classes {
		if c != 0 {
			n++
		}
	}
	e.count(n)
	for cls, c := range f.classes {
		if c != 0 {
			e.count(cls)
			e.count(c)
		}
	}
	profiles := make([]int, 0, len(f.profiles))
	for p := range f.profiles {
		profiles = append(profiles, int(p))
	}
	sort.Ints(profiles)
	e.count(len(profiles))
	for _, p := range profiles {
		e.count(p)
		e.count(f.profiles[hostile.Profile(p)])
	}
}

func decodeErrors(d *codecDec, f *errorClassFold) error {
	total, err := d.count()
	if err != nil {
		return err
	}
	f.total = total
	n, err := d.length(2)
	if err != nil {
		return err
	}
	prev := -1
	for i := 0; i < n; i++ {
		cls, err := d.count()
		if err != nil {
			return err
		}
		if cls <= prev {
			return decErr("error classes not strictly ascending (%d after %d)", cls, prev)
		}
		if cls <= int(resilience.ClassNone) || cls > int(resilience.ClassOther) {
			return decErr("error class %d is not a failure class", cls)
		}
		prev = cls
		c, err := d.count()
		if err != nil {
			return err
		}
		if c == 0 {
			return decErr("error class %d has a zero count", cls)
		}
		f.classes[cls] = c
	}
	n, err = d.length(2)
	if err != nil {
		return err
	}
	prev = -1
	for i := 0; i < n; i++ {
		p, err := d.count()
		if err != nil {
			return err
		}
		if p <= prev {
			return decErr("hostile profiles not strictly ascending (%d after %d)", p, prev)
		}
		if p > len(hostile.Profiles()) {
			return decErr("hostile profile %d is not a profile", p)
		}
		prev = p
		c, err := d.count()
		if err != nil {
			return err
		}
		if c == 0 {
			return decErr("hostile profile %d has a zero count", p)
		}
		f.profiles[hostile.Profile(p)] = c
	}
	return nil
}

func encodeAccuracy(e *codecEnc, f *accuracyFold) {
	for i := range f.abs {
		encodeHistogram(e, f.abs[i])
		encodeHistogram(e, f.ratio[i])
	}
	e.count(f.n)
	e.count(f.over)
	e.count(f.w25)
	e.count(f.o200)
	e.count(f.w125)
	e.count(f.w2)
	e.count(f.o3)
}

func decodeAccuracy(d *codecDec, f *accuracyFold) error {
	for i := range f.abs {
		if err := decodeHistogram(d, f.abs[i]); err != nil {
			return err
		}
		if err := decodeHistogram(d, f.ratio[i]); err != nil {
			return err
		}
	}
	return decodeCounts(d, &f.n, &f.over, &f.w25, &f.o200, &f.w125, &f.w2, &f.o3)
}

// encodeHistogram writes the counts only: the edges are fixed analysis
// constants and N is the derived total.
func encodeHistogram(e *codecEnc, h *stats.Histogram) {
	e.count(h.Underflow)
	e.count(h.Overflow)
	for _, c := range h.Counts {
		e.count(c)
	}
}

func decodeHistogram(d *codecDec, h *stats.Histogram) error {
	if err := decodeCounts(d, &h.Underflow, &h.Overflow); err != nil {
		return err
	}
	h.N = h.Underflow + h.Overflow
	for i := range h.Counts {
		c, err := d.count()
		if err != nil {
			return err
		}
		h.Counts[i] = c
		h.N += c
	}
	return nil
}

// --- campaign -----------------------------------------------------------

// Marshal serializes the whole campaign: the longitudinal fold plus every
// started week, in (Week, IPv6) order.
func (c *CampaignAccumulator) Marshal() []byte {
	e := newCodecEnc(kindCampaign)
	names := sortedKeys(c.long.domains)
	e.count(len(names))
	for _, name := range names {
		t := c.long.domains[name]
		// everSpun is derivable (spinWeeks > 0) and not serialized.
		e.str(name)
		e.count(t.quicWeeks)
		e.count(t.spinWeeks)
	}
	e.count(len(c.weeks))
	for _, a := range c.weeks {
		encodeAccBody(e, a)
	}
	return e.b
}

// UnmarshalCampaign decodes a campaign serialized by CampaignAccumulator
// Marshal; see UnmarshalAccumulator for the res parameter and the error
// contract.
func UnmarshalCampaign(data []byte, res *asdb.Resolver) (*CampaignAccumulator, error) {
	d, kind, err := codecHeader(data)
	if err != nil {
		return nil, err
	}
	if kind != kindCampaign {
		return nil, decErr("kind %q is not a campaign", kind)
	}
	c := NewCampaignAccumulator()
	n, err := d.length(3)
	if err != nil {
		return nil, err
	}
	// length bounds n by the bytes left, so a hostile count cannot size this.
	c.long.domains = make(map[string]*longTrack, n)
	prev := ""
	for i := 0; i < n; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		if name == "" || (i > 0 && name <= prev) {
			return nil, decErr("domain names not strictly ascending (%q after %q)", name, prev)
		}
		prev = name
		t := c.long.track(name)
		if err := decodeCounts(d, &t.quicWeeks, &t.spinWeeks); err != nil {
			return nil, err
		}
		if t.quicWeeks == 0 {
			// The fold keeps no record of a domain that never spoke QUIC.
			return nil, decErr("domain %q has no QUIC week", name)
		}
		if t.spinWeeks > t.quicWeeks {
			return nil, decErr("domain %q spun in %d of %d QUIC weeks", name, t.spinWeeks, t.quicWeeks)
		}
		t.everSpun = t.spinWeeks > 0
	}
	nw, err := d.length(5)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nw; i++ {
		a, err := decodeAccBody(d, res)
		if err != nil {
			return nil, err
		}
		if last := len(c.weeks) - 1; last >= 0 {
			w := c.weeks[last]
			if a.Week < w.Week || (a.Week == w.Week && (!a.IPv6 || w.IPv6)) {
				return nil, decErr("weeks not strictly ascending (week %d after %d)", a.Week, w.Week)
			}
		}
		a.long = c.long
		c.weeks = append(c.weeks, a)
	}
	if len(d.b) != 0 {
		return nil, decErr("%d trailing bytes", len(d.b))
	}
	return c, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
