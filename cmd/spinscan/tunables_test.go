package main

import (
	"strings"
	"testing"
)

// TestParseTunables covers the SIGHUP-reloadable settings grammar.
func TestParseTunables(t *testing.T) {
	tn, err := parseTunables(strings.NewReader(`
# runtime tunables
alerts            = error-rate<=0.05,domains-per-sec>=100
progress          = 30s
breaker-threshold = 5
breaker-cooldown  = 45s
`))
	if err != nil {
		t.Fatal(err)
	}
	if !tn.HasAlerts || tn.Alerts != "error-rate<=0.05,domains-per-sec>=100" {
		t.Errorf("alerts = %q (has=%v)", tn.Alerts, tn.HasAlerts)
	}
	if !tn.HasProgress || tn.Progress.Seconds() != 30 {
		t.Errorf("progress = %v (has=%v)", tn.Progress, tn.HasProgress)
	}
	if !tn.HasBreakerThreshold || tn.BreakerThreshold != 5 {
		t.Errorf("breaker-threshold = %d (has=%v)", tn.BreakerThreshold, tn.HasBreakerThreshold)
	}
	if !tn.HasBreakerCooldown || tn.BreakerCooldown.Seconds() != 45 {
		t.Errorf("breaker-cooldown = %v (has=%v)", tn.BreakerCooldown, tn.HasBreakerCooldown)
	}

	partial, err := parseTunables(strings.NewReader("progress = 1m\n"))
	if err != nil {
		t.Fatal(err)
	}
	if partial.HasAlerts || partial.HasBreakerThreshold || partial.HasBreakerCooldown {
		t.Error("absent keys reported as present")
	}
	for _, bad := range []string{
		"nonsense\n", "unknown = 1\n", "progress = -5s\n",
		"breaker-threshold = x\n", "breaker-threshold = -1\n", "breaker-cooldown = nope\n",
	} {
		if _, err := parseTunables(strings.NewReader(bad)); err == nil {
			t.Errorf("parseTunables(%q) succeeded, want error", bad)
		}
	}
}
