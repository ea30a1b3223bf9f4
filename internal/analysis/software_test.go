package analysis

import (
	"strings"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

func TestSoftwareTableSynthetic(t *testing.T) {
	mk := func(server string, spin bool) (scanner.ConnResult, Conn) {
		c := scanner.ConnResult{QUIC: true, Server: server, ZeroPkts: 1}
		a := Conn{Class: ClassAllZero}
		if spin {
			a.Class = ClassSpin
		}
		return c, a
	}
	f := newSoftwareFold(StandardViews()[1])
	add := func(server string, spin bool) {
		c, a := mk(server, spin)
		f.add(&DomainAnalysis{
			Src:   &scanner.DomainResult{Domain: "d", TLD: "com", Resolved: true, Conns: []scanner.ConnResult{c}},
			Conns: []Conn{a},
		})
	}
	add("LiteSpeed", true)
	add("LiteSpeed", true)
	add("LiteSpeed", false)
	add("nginx", false)
	add("imunify360-webshield", true)

	rows := f.finish()
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Software != "LiteSpeed" || rows[0].Conns != 3 || rows[0].SpinConns != 2 {
		t.Errorf("top row = %+v", rows[0])
	}
	if got := SpinShareOfSoftware(rows, "LiteSpeed"); got != 2.0/3 {
		t.Errorf("LiteSpeed spin share = %v", got)
	}
	if got := SpinShareOfSoftware(nil, "x"); got != 0 {
		t.Errorf("empty share = %v", got)
	}
}

// TestLiteSpeedCarriesSpinSupport checks the §4.2 takeaway on the scanned
// fixture: the overwhelming share of spinning connections identify as
// LiteSpeed (plus imunify360-webshield, its suspected derivative).
func TestLiteSpeedCarriesSpinSupport(t *testing.T) {
	_, wk, _ := fixture(t)
	rows := wk.software.finish()
	if len(rows) == 0 {
		t.Fatal("no software rows")
	}
	ls := SpinShareOfSoftware(rows, websim.SoftLiteSpeed) +
		SpinShareOfSoftware(rows, websim.SoftImunify)
	if ls < 0.8 {
		t.Errorf("LiteSpeed(+imunify) share of spinning conns = %.3f, want > 0.8 (paper: >80%%)", ls)
	}
	// Non-spinning stacks must not dominate the spin rows.
	for _, r := range rows {
		if (r.Software == websim.SoftCloudflare || r.Software == websim.SoftGoogle) && r.SpinConns > 0 {
			t.Errorf("%s shows %d spinning connections", r.Software, r.SpinConns)
		}
	}
	if s := wk.RenderSoftwareTable().String(); !strings.Contains(s, "LiteSpeed") {
		t.Errorf("render:\n%s", s)
	}
}
