package analysis

import (
	"bytes"
	"net/netip"
	"testing"

	"quicspin/internal/asdb"
	"quicspin/internal/hostile"
	"quicspin/internal/resilience"
	"quicspin/internal/scanner"
)

// nonCanonicalBlobs are encodings that a fold state never produces, each
// decodable but for the one property the decoder must refuse: an IP key
// spelled other than as its address's text (a zero-padded octet, an
// IPv4-mapped form), a Table 5 count for no failure class (ClassNone, or
// past ClassOther: the fold indexes an array by the class) or for a
// profile past the last, and a longitudinal entry for a domain with no
// QUIC week.
func nonCanonicalBlobs(res *asdb.Resolver) map[string][]byte {
	ipBlob := func(text string) []byte {
		a := NewAccumulator(1, false, res)
		a.ips.or(netip.MustParseAddr("1.2.3.4"), ipFlags(1, true, false)) // a QUIC IP of view 0
		canon := append([]byte{byte(len("1.2.3.4"))}, "1.2.3.4"...)
		return bytes.Replace(a.Marshal(), canon, append([]byte{byte(len(text))}, text...), 1)
	}
	// 99 connections, 77 of them reset: the error section reads total,
	// one class, the class, its count.
	classBlob := func(cls resilience.Class) []byte {
		a := NewAccumulator(1, false, res)
		a.errs.total, a.errs.classes[resilience.ClassReset] = 99, 77
		canon := []byte{99, 1, byte(resilience.ClassReset), 77}
		return bytes.Replace(a.Marshal(), canon, []byte{99, 1, byte(cls), 77}, 1)
	}
	// And 77 hostile connections, 55 of them spin-flap.
	profileBlob := func(p int) []byte {
		a := NewAccumulator(1, false, res)
		a.errs.total, a.errs.classes[resilience.ClassHostile] = 99, 77
		a.errs.profiles[hostile.SpinFlap] = 55
		canon := []byte{99, 1, byte(resilience.ClassHostile), 77, 1, byte(hostile.SpinFlap), 55}
		return bytes.Replace(a.Marshal(), canon, []byte{99, 1, byte(resilience.ClassHostile), 77, 1, byte(p), 55}, 1)
	}
	zero := NewCampaignAccumulator()
	zero.long.track("never-quic.com")
	return map[string][]byte{
		"zero-padded octet":    ipBlob("1.2.3.04"),
		"IPv4-mapped":          ipBlob("::ffff:1.2.3.4"),
		"error class none":     classBlob(resilience.ClassNone),
		"error class past all": classBlob(resilience.ClassOther + 1),
		"profile past all":     profileBlob(len(hostile.Profiles()) + 1),
		"0/0 track":            zero.Marshal(),
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	blobs := nonCanonicalBlobs(nil)
	for name, blob := range blobs {
		var err error
		if name == "0/0 track" {
			_, err = UnmarshalCampaign(blob, nil)
		} else {
			_, err = UnmarshalAccumulator(blob, nil)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		t.Logf("%s: %v", name, err)
	}
	// The IP blobs differ from a canonical one only in the key's text.
	a := NewAccumulator(1, false, nil)
	a.ips.or(netip.MustParseAddr("1.2.3.4"), ipFlags(1, true, false)) // a QUIC IP of view 0
	if _, err := UnmarshalAccumulator(a.Marshal(), nil); err != nil {
		t.Fatalf("canonical blob rejected: %v", err)
	}
	// The class and profile blobs differ from a canonical one only in the
	// class or the profile.
	a = NewAccumulator(1, false, nil)
	a.errs.total, a.errs.classes[resilience.ClassHostile] = 99, 77
	a.errs.profiles[hostile.SpinFlap] = 55
	if _, err := UnmarshalAccumulator(a.Marshal(), nil); err != nil {
		t.Fatalf("canonical blob rejected: %v", err)
	}
}

// A mapped address folds onto its IPv4 address, so every fold state
// encodes to a blob the decoder accepts.
func TestOverviewFoldUnmapsAddresses(t *testing.T) {
	a := NewAccumulator(1, false, nil)
	for _, ip := range []string{"1.2.3.4", "::ffff:1.2.3.4"} {
		a.Add(&scanner.DomainResult{Domain: "a.com", TLD: "com", Toplist: true, Resolved: true,
			Conns: []scanner.ConnResult{{IP: netip.MustParseAddr(ip), QUIC: true}}})
	}
	if got := a.OverviewRows()[0]; got.TotalIPs != 1 || got.QUICIPs != 1 {
		t.Fatalf("toplist row %+v, want one QUIC IP", got)
	}
	if _, err := UnmarshalAccumulator(a.Marshal(), nil); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}
