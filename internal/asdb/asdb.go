// Package asdb maps IP addresses to autonomous systems and AS numbers to
// organisations, replicating the attribution step of the paper (§4.2):
// "we first map each IP to its corresponding ASN using BGP data of RIPE's
// RIS archive and then lookup the corresponding organizations using CAIDA's
// as2org dataset". The BGP view is a longest-prefix-match table over
// IPv4/IPv6 prefixes; the org view is an ASN→organisation map. Snapshots
// serialise to a line-oriented text format so campaigns can persist them.
package asdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// Table is a longest-prefix-match routing table from prefixes to ASNs,
// implemented as a binary trie per address family.
type Table struct {
	v4, v6 *node
	count  int
}

type node struct {
	children [2]*node
	asn      uint32
	hasASN   bool
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{v4: &node{}, v6: &node{}}
}

// Len returns the number of inserted prefixes.
func (t *Table) Len() int { return t.count }

// Insert adds or replaces a prefix→ASN mapping. Invalid prefixes error.
func (t *Table) Insert(p netip.Prefix, asn uint32) error {
	if !p.IsValid() {
		return errors.New("asdb: invalid prefix")
	}
	p = p.Masked()
	root := t.v6
	if p.Addr().Is4() {
		root = t.v4
	}
	bits := p.Addr().AsSlice()
	n := root
	for i := 0; i < p.Bits(); i++ {
		b := (bits[i/8] >> (7 - i%8)) & 1
		if n.children[b] == nil {
			n.children[b] = &node{}
		}
		n = n.children[b]
	}
	if !n.hasASN {
		t.count++
	}
	n.asn = asn
	n.hasASN = true
	return nil
}

// Lookup returns the ASN of the longest matching prefix for ip.
func (t *Table) Lookup(ip netip.Addr) (uint32, bool) {
	if !ip.IsValid() {
		return 0, false
	}
	root := t.v6
	if ip.Is4() {
		root = t.v4
	}
	bits := ip.AsSlice()
	var (
		best    uint32
		found   bool
		n       = root
		maxBits = len(bits) * 8
	)
	for i := 0; ; i++ {
		if n.hasASN {
			best, found = n.asn, true
		}
		if i >= maxBits {
			break
		}
		b := (bits[i/8] >> (7 - i%8)) & 1
		if n.children[b] == nil {
			break
		}
		n = n.children[b]
	}
	return best, found
}

// Org describes an AS organisation (the as2org granularity the paper uses).
type Org struct {
	// Name is the organisation name, e.g. "Cloudflare".
	Name string
}

// OrgDB maps AS numbers to organisations. Multiple ASNs may share one
// organisation, as in CAIDA's as2org.
type OrgDB struct {
	byASN map[uint32]Org
}

// NewOrgDB returns an empty organisation database.
func NewOrgDB() *OrgDB { return &OrgDB{byASN: map[uint32]Org{}} }

// Add maps asn to org.
func (d *OrgDB) Add(asn uint32, org Org) { d.byASN[asn] = org }

// Lookup returns the organisation for an ASN.
func (d *OrgDB) Lookup(asn uint32) (Org, bool) {
	o, ok := d.byASN[asn]
	return o, ok
}

// Len returns the number of mapped ASNs.
func (d *OrgDB) Len() int { return len(d.byASN) }

// Resolver combines both lookups: IP → ASN → organisation.
type Resolver struct {
	Table *Table
	Orgs  *OrgDB
}

// OrgOf attributes an IP to an organisation name; unknown IPs map to
// "<unknown>", matching how the paper buckets unattributable connections.
// A nil resolver (analysis without an asdb snapshot) knows no IP.
func (r *Resolver) OrgOf(ip netip.Addr) string {
	if r == nil {
		return "<unknown>"
	}
	asn, ok := r.Table.Lookup(ip)
	if !ok {
		return "<unknown>"
	}
	org, ok := r.Orgs.Lookup(asn)
	if !ok {
		return fmt.Sprintf("AS%d", asn)
	}
	return org.Name
}

// --- snapshot format ----------------------------------------------------
//
//	prefix <cidr> <asn>
//	org <asn> <name…>

// WriteSnapshot serialises a table and org DB.
func WriteSnapshot(w io.Writer, t *Table, d *OrgDB, prefixes map[netip.Prefix]uint32) error {
	bw := bufio.NewWriter(w)
	keys := make([]netip.Prefix, 0, len(prefixes))
	for p := range prefixes {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, p := range keys {
		fmt.Fprintf(bw, "prefix %s %d\n", p, prefixes[p])
	}
	asns := make([]uint32, 0, len(d.byASN))
	for a := range d.byASN {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, a := range asns {
		fmt.Fprintf(bw, "org %d %s\n", a, d.byASN[a].Name)
	}
	return bw.Flush()
}

// ReadSnapshot parses a snapshot into a fresh Table and OrgDB.
func ReadSnapshot(r io.Reader) (*Table, *OrgDB, error) {
	t := NewTable()
	d := NewOrgDB()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		switch {
		case fields[0] == "prefix" && len(fields) == 3:
			p, err := netip.ParsePrefix(fields[1])
			if err != nil {
				return nil, nil, fmt.Errorf("asdb: line %d: %w", lineNo, err)
			}
			asn, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("asdb: line %d: asn %q", lineNo, fields[2])
			}
			if err := t.Insert(p, uint32(asn)); err != nil {
				return nil, nil, err
			}
		case fields[0] == "org" && len(fields) == 3:
			asn, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("asdb: line %d: asn %q", lineNo, fields[1])
			}
			d.Add(uint32(asn), Org{Name: fields[2]})
		default:
			return nil, nil, fmt.Errorf("asdb: line %d: unrecognised record %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return t, d, nil
}
