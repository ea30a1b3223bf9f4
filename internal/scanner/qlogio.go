package scanner

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/qlog"
)

// This file serialises scan results as qlog traces (one per connection)
// and reads them back — the interchange format of the paper's pipeline:
// the authors captured extended qlog from quic-go and post-processed the
// packet_received events (§3.2.1, §3.3).

// connQlogHeader builds the trace header for one connection.
func connQlogHeader(d *DomainResult, c *ConnResult, week int, ipv6 bool, ref time.Time) qlog.TraceHeader {
	cf := map[string]string{
		"domain":    d.Domain,
		"tld":       d.TLD,
		"toplist":   strconv.FormatBool(d.Toplist),
		"resolved":  strconv.FormatBool(d.Resolved),
		"target":    c.Target,
		"ip":        c.IP.String(),
		"hop":       strconv.Itoa(c.Hop),
		"week":      strconv.Itoa(week),
		"ipv6":      strconv.FormatBool(ipv6),
		"quic":      strconv.FormatBool(c.QUIC),
		"status":    strconv.Itoa(c.Status),
		"server":    c.Server,
		"zero_pkts": strconv.Itoa(c.ZeroPkts),
		"one_pkts":  strconv.Itoa(c.OnePkts),
	}
	if c.Err != "" {
		cf["error"] = c.Err
	}
	if c.Redirect != "" {
		cf["redirect"] = c.Redirect
	}
	return qlog.TraceHeader{
		Title:         "quicspin scan",
		VantagePoint:  "client",
		ReferenceTime: ref,
		CommonFields:  cf,
	}
}

// WriteConnQlog serialises one connection of a scanned domain as a qlog
// trace.
func WriteConnQlog(w io.Writer, d *DomainResult, connIdx, week int, ipv6 bool) error {
	c := &d.Conns[connIdx]
	ref := campaignStart(week)
	qw, err := qlog.NewWriter(w, connQlogHeader(d, c, week, ipv6, ref), false)
	if err != nil {
		return err
	}
	for _, ob := range c.Observations {
		spin := ob.Spin
		hdr := qlog.PacketHeader{PacketType: "1RTT", PacketNumber: ob.PN, SpinBit: &spin}
		if ob.VEC != 0 {
			vec := ob.VEC
			hdr.VEC = &vec
		}
		if err := qw.PacketReceived(ob.T, hdr, 0); err != nil {
			return err
		}
	}
	at := ref
	for _, s := range c.StackRTTs {
		at = at.Add(time.Millisecond)
		if err := qw.MetricsUpdated(at, qlog.MetricsEvent{
			LatestRTTMs: float64(s) / float64(time.Millisecond),
		}); err != nil {
			return err
		}
	}
	return qw.Close()
}

// ReadConnQlog parses a trace written by WriteConnQlog, reconstructing the
// domain context and connection record.
func ReadConnQlog(r io.Reader) (*DomainResult, *ConnResult, int, bool, error) {
	tr, err := qlog.Parse(r)
	if err != nil {
		return nil, nil, 0, false, err
	}
	cf := tr.Header.CommonFields
	get := func(k string) string { return cf[k] }
	geti := func(k string) int {
		v, err := strconv.Atoi(get(k))
		if err != nil {
			return 0
		}
		return v
	}
	getb := func(k string) bool { return get(k) == "true" }

	d := &DomainResult{
		Domain:   get("domain"),
		TLD:      get("tld"),
		Toplist:  getb("toplist"),
		Resolved: getb("resolved"),
	}
	if d.Domain == "" {
		return nil, nil, 0, false, fmt.Errorf("scanner: qlog trace lacks domain common field")
	}
	c := &ConnResult{
		Target:   get("target"),
		Hop:      geti("hop"),
		QUIC:     getb("quic"),
		Status:   geti("status"),
		Server:   get("server"),
		Redirect: get("redirect"),
		ZeroPkts: geti("zero_pkts"),
		OnePkts:  geti("one_pkts"),
	}
	c.setErr(get("error")) // a trace holds the text: classify it as the scan did
	if ip, err := netip.ParseAddr(get("ip")); err == nil {
		c.IP = ip
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Name {
		case qlog.EventPacketReceived:
			p, err := ev.Packet()
			if err != nil {
				return nil, nil, 0, false, err
			}
			ob := core.Observation{T: tr.Time(i), PN: p.Header.PacketNumber}
			if p.Header.SpinBit != nil {
				ob.Spin = *p.Header.SpinBit
			}
			if p.Header.VEC != nil {
				ob.VEC = *p.Header.VEC
			}
			c.Observations = append(c.Observations, ob)
		case qlog.EventMetricsUpdated:
			m, err := ev.Metrics()
			if err != nil {
				return nil, nil, 0, false, err
			}
			c.StackRTTs = append(c.StackRTTs,
				time.Duration(m.LatestRTTMs*float64(time.Millisecond)))
		}
	}
	return d, c, geti("week"), getb("ipv6"), nil
}

// QlogSink returns a RunStream sink that writes one qlog file per connection
// under open(name) as each domain is delivered, so exporting traces never
// materialises the week. Unresolved domains have no connections and emit no
// files. The open callback abstracts the filesystem so tests can collect
// buffers.
func QlogSink(week int, ipv6 bool, open func(name string) (io.WriteCloser, error)) func(i int, d *DomainResult) error {
	return func(_ int, d *DomainResult) error {
		for j := range d.Conns {
			name := fmt.Sprintf("%s.conn%d.week%d.qlog", d.Domain, j, week)
			w, err := open(name)
			if err != nil {
				return err
			}
			if err := WriteConnQlog(w, d, j, week, ipv6); err != nil {
				w.Close()
				return fmt.Errorf("scanner: writing %s: %w", name, err)
			}
			if err := w.Close(); err != nil {
				return err
			}
		}
		return nil
	}
}

// MergeQlogConns reassembles one Result per campaign week from
// individually parsed traces, grouping connections by domain within each
// week. Results are sorted by week.
func MergeQlogConns(readers []io.Reader) ([]*Result, error) {
	type key struct {
		week int
		ipv6 bool
	}
	results := map[key]*Result{}
	byDomain := map[key]map[string]int{}
	for _, r := range readers {
		d, c, week, ipv6, err := ReadConnQlog(r)
		if err != nil {
			return nil, err
		}
		k := key{week, ipv6}
		res := results[k]
		if res == nil {
			res = &Result{Week: week, IPv6: ipv6}
			results[k] = res
			byDomain[k] = map[string]int{}
		}
		idx, ok := byDomain[k][d.Domain]
		if !ok {
			idx = len(res.Domains)
			byDomain[k][d.Domain] = idx
			res.Domains = append(res.Domains, *d)
		}
		res.Domains[idx].Conns = append(res.Domains[idx].Conns, *c)
	}
	out := make([]*Result, 0, len(results))
	for _, res := range results {
		// Restore the redirect-chain order regardless of file iteration
		// order.
		for i := range res.Domains {
			conns := res.Domains[i].Conns
			sort.Slice(conns, func(a, b int) bool { return conns[a].Hop < conns[b].Hop })
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Week != out[j].Week {
			return out[i].Week < out[j].Week
		}
		return !out[i].IPv6 && out[j].IPv6
	})
	return out, nil
}
