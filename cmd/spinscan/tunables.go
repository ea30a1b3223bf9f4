package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"quicspin/internal/resilience"
	"quicspin/internal/telemetry"
)

// settings are the four options a running spinscan service can change
// without a restart. The flags of the same names seed them; the -tunables
// file overlays them at start and again on every SIGHUP, and a key the file
// omits keeps its current value. Both sources go through one validate.
//
// File grammar: one `key = value` per line, '#' comments, blank lines
// ignored; the keys are the flag names.
//
//	alerts            = error-rate<=0.05,domains-per-sec>=100
//	progress          = 30s
//	breaker-threshold = 5
//	breaker-cooldown  = 45s
type settings struct {
	alerts           string
	progress         time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
}

// String renders s in the tunables file's key names, for log lines.
func (s settings) String() string {
	return fmt.Sprintf("alerts=%q progress=%v breaker-threshold=%d breaker-cooldown=%v",
		s.alerts, s.progress, s.breakerThreshold, s.breakerCooldown)
}

// flagSettings seeds the settings from the command line.
func flagSettings() settings {
	return settings{
		alerts:           *alertSpec,
		progress:         *progressEvery,
		breakerThreshold: *breakerThreshold,
		breakerCooldown:  *breakerCooldown,
	}
}

// parseTunables overlays the key = value lines of r on s.
func parseTunables(r io.Reader, s settings) (settings, error) {
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return s, fmt.Errorf("tunables line %d: want key = value, got %q", lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "alerts":
			s.alerts = val // an empty value clears all rules
		case "progress":
			s.progress, err = time.ParseDuration(val)
		case "breaker-threshold":
			s.breakerThreshold, err = strconv.Atoi(val)
		case "breaker-cooldown":
			s.breakerCooldown, err = time.ParseDuration(val)
		default:
			return s, fmt.Errorf("tunables line %d: unknown key %q", lineNo, key)
		}
		if err != nil {
			return s, fmt.Errorf("tunables line %d: %s = %q: %v", lineNo, key, val, err)
		}
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("read tunables: %w", err)
	}
	return s, nil
}

// loadTunables overlays the tunables file at path on s.
func loadTunables(path string, s settings) (settings, error) {
	f, err := os.Open(path)
	if err != nil {
		return s, fmt.Errorf("open tunables: %w", err)
	}
	defer f.Close()
	return parseTunables(f, s)
}

// validate rejects values the campaign would silently misread, naming the
// option, and returns the parsed alert rules.
func (s settings) validate() ([]telemetry.Rule, error) {
	rules, err := parseAlertRules(s.alerts)
	if err != nil {
		return nil, fmt.Errorf("alerts: %v", err)
	}
	for _, o := range []struct {
		name string
		neg  bool
		v    any
	}{
		{"progress", s.progress < 0, s.progress},
		{"breaker-threshold", s.breakerThreshold < 0, s.breakerThreshold},
		{"breaker-cooldown", s.breakerCooldown < 0, s.breakerCooldown},
	} {
		if o.neg {
			return nil, fmt.Errorf("%s must be >= 0 (got %v)", o.name, o.v)
		}
	}
	return rules, nil
}

// tunables holds the settings installed in a running campaign. Alerts and
// the progress cadence change at once; ForWeek reads the breaker at the next
// week boundary, so a scan in flight is never reconfigured.
type tunables struct {
	mu          sync.Mutex
	cur         settings
	alerts      *telemetry.AlertEngine
	setProgress func(time.Duration) // nil until the reporter starts
}

// newTunables installs the flag settings overlaid by the tunables file at
// path (the flags alone when path is empty).
func newTunables(reg *telemetry.Registry, path string, logf func(string, ...any)) (*tunables, error) {
	s := flagSettings()
	if path != "" {
		var err error
		if s, err = loadTunables(path, s); err != nil {
			return nil, err
		}
		logf("tunables loaded: %v", s)
	}
	t := &tunables{alerts: telemetry.NewAlertEngine(reg, logf)}
	if err := t.apply(s); err != nil {
		return nil, err
	}
	return t, nil
}

// apply validates next and installs it; an invalid next leaves the
// installed settings as they were.
func (t *tunables) apply(next settings) error {
	rules, err := next.validate()
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if next.alerts != t.cur.alerts {
		t.alerts.ReplaceRules(rules)
	}
	if next.progress != t.cur.progress && t.setProgress != nil {
		t.setProgress(next.progress)
	}
	t.cur = next
	return nil
}

// reload overlays the tunables file at path on the installed settings and
// applies the result.
func (t *tunables) reload(path string) error {
	next, err := loadTunables(path, t.get())
	if err != nil {
		return err
	}
	return t.apply(next)
}

func (t *tunables) get() settings {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// breaker is the circuit-breaker configuration of the next week's scan.
func (t *tunables) breaker() resilience.BreakerConfig {
	s := t.get()
	return resilience.BreakerConfig{Threshold: s.breakerThreshold, Cooldown: s.breakerCooldown}
}

// startProgress starts the progress reporter at the installed cadence;
// later applies retune it.
func (t *tunables) startProgress(reg *telemetry.Registry, printf func(string, ...any)) (stop func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stop, t.setProgress = startProgress(reg, t.cur.progress, printf, t.alerts)
	return stop
}
