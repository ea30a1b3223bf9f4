package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
)

// TestParseTunables covers the SIGHUP-reloadable settings grammar.
func TestParseTunables(t *testing.T) {
	tn, err := parseTunables(strings.NewReader(`
# runtime tunables
alerts            = error-rate<=0.05,domains-per-sec>=100
progress          = 30s
breaker-threshold = 5
breaker-cooldown  = 45s
`), settings{})
	if err != nil {
		t.Fatal(err)
	}
	want := settings{"error-rate<=0.05,domains-per-sec>=100", 30 * time.Second, 5, 45 * time.Second}
	if tn != want {
		t.Errorf("parsed %v, want %v", tn, want)
	}

	// A key the file omits keeps the value it is overlaid on.
	base := settings{"spin-share>=0.01", time.Second, 3, time.Minute}
	partial, err := parseTunables(strings.NewReader("progress = 1m\n"), base)
	if err != nil {
		t.Fatal(err)
	}
	if want := (settings{"spin-share>=0.01", time.Minute, 3, time.Minute}); partial != want {
		t.Errorf("partial overlay = %v, want %v", partial, want)
	}
	for _, bad := range []string{
		"nonsense\n", "unknown = 1\n", "progress = -5s\n",
		"breaker-threshold = x\n", "breaker-threshold = -1\n", "breaker-cooldown = nope\n",
	} {
		s, err := parseTunables(strings.NewReader(bad), settings{})
		if err == nil {
			_, err = s.validate()
		}
		if err == nil {
			t.Errorf("tunables %q accepted, want an error", bad)
		}
	}
}

// TestSettingsPath drives the one settings path end to end: the flags seed
// the settings, the tunables file overlays them at start and on reload, and
// a negative value is rejected the same way from either source.
func TestSettingsPath(t *testing.T) {
	setFlag := func(name, v string) {
		t.Helper()
		def := flag.Lookup(name).DefValue
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, def) })
	}
	path := filepath.Join(t.TempDir(), "tunables")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.New()
	logf := func(string, ...any) {}

	setFlag("alerts", "domains-per-sec>=1")
	setFlag("progress", "0")
	setFlag("breaker-threshold", "5")
	setFlag("breaker-cooldown", "10s")
	write("breaker-cooldown = 45s\n")
	tun, err := newTunables(reg, path, logf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tun.breaker(), (resilience.BreakerConfig{Threshold: 5, Cooldown: 45 * time.Second}); got != want {
		t.Errorf("flags + file: breaker %v, want %v", got, want)
	}
	if firing := tun.alerts.Evaluate(); len(firing) != 1 || firing[0] != "domains-per-sec" {
		t.Errorf("flag alert rules not installed: firing %v", firing)
	}

	// A reload overlays the installed settings: keys the file omits keep
	// their current value, including the file's own earlier ones.
	write("breaker-threshold = 7\nalerts =\n")
	if err := tun.reload(path); err != nil {
		t.Fatal(err)
	}
	want := settings{"", 0, 7, 45 * time.Second}
	if got := tun.get(); got != want {
		t.Errorf("after reload %v, want %v", got, want)
	}
	if firing := tun.alerts.Evaluate(); len(firing) != 0 {
		t.Errorf("cleared alerts still firing: %v", firing)
	}

	// A bad reload keeps the previous settings, whether it fails to parse
	// or to validate.
	for _, bad := range []string{"breaker-threshold = x\n", "breaker-threshold = 9\nprogress = -1s\n", "alerts = nope<=1\n"} {
		write(bad)
		if err := tun.reload(path); err == nil {
			t.Errorf("reload of %q succeeded", bad)
		}
		if got := tun.get(); got != want {
			t.Errorf("after bad reload %q: %v, want %v", bad, got, want)
		}
	}

	// A negative value is rejected from a flag and from the file alike,
	// naming the option.
	for _, c := range []struct{ name, bad string }{
		{"progress", "-1s"}, {"breaker-threshold", "-1"}, {"breaker-cooldown", "-5s"},
	} {
		setFlag(c.name, c.bad)
		if _, err := newTunables(reg, "", logf); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("-%s %s: %v, want an error naming it", c.name, c.bad, err)
		}
		setFlag(c.name, flag.Lookup(c.name).DefValue)
		write(c.name + " = " + c.bad + "\n")
		if _, err := newTunables(reg, path, logf); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("tunables %s = %s: %v, want an error naming it", c.name, c.bad, err)
		}
	}
}
