package analysis

import (
	"bytes"
	"net/netip"
	"testing"

	"quicspin/internal/asdb"
	"quicspin/internal/scanner"
)

// nonCanonicalBlobs are encodings that a fold state never produces, each
// decodable but for the one property the decoder must refuse: an IP key
// spelled other than as its address's text (a zero-padded octet, an
// IPv4-mapped form) and a longitudinal entry for a domain with no QUIC
// week.
func nonCanonicalBlobs(res *asdb.Resolver) map[string][]byte {
	ipBlob := func(text string) []byte {
		a := NewAccumulator(1, false, res)
		a.ips.or(netip.MustParseAddr("1.2.3.4"), ipFlags(1, true, false)) // a QUIC IP of view 0
		canon := append([]byte{byte(len("1.2.3.4"))}, "1.2.3.4"...)
		return bytes.Replace(a.Marshal(), canon, append([]byte{byte(len(text))}, text...), 1)
	}
	zero := NewCampaignAccumulator()
	zero.long.track("never-quic.com")
	return map[string][]byte{
		"zero-padded octet": ipBlob("1.2.3.04"),
		"IPv4-mapped":       ipBlob("::ffff:1.2.3.4"),
		"0/0 track":         zero.Marshal(),
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
