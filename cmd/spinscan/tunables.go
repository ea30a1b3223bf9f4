package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// tunables are the runtime settings a long-running spinscan service can
// reload without restart (SIGHUP re-reads the -tunables file). Every field
// has a matching Has flag: only keys present in the file override the
// command line, so a partial file adjusts one knob and leaves the rest.
//
// File grammar: one `key = value` per line, '#' comments, blank lines
// ignored.
//
//	alerts            = error-rate<=0.05,domains-per-sec>=100
//	progress          = 30s
//	breaker-threshold = 5
//	breaker-cooldown  = 45s
//
// Alerts and progress apply at the next progress tick; breaker settings at
// the next week boundary (a scan in flight is never reconfigured).
type tunables struct {
	Alerts    string
	HasAlerts bool

	Progress    time.Duration
	HasProgress bool

	BreakerThreshold    int
	HasBreakerThreshold bool

	BreakerCooldown    time.Duration
	HasBreakerCooldown bool
}

// parseTunables reads the key = value tunables format.
func parseTunables(r io.Reader) (*tunables, error) {
	t := &tunables{}
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
			return nil, fmt.Errorf("tunables line %d: want key = value, got %q", lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "alerts":
			// Validated by the caller's alert parser (it owns the registry);
			// an empty value clears all rules.
			t.Alerts, t.HasAlerts = val, true
		case "progress":
			t.Progress, err = time.ParseDuration(val)
			if err == nil && t.Progress < 0 {
				err = fmt.Errorf("must be >= 0")
			}
			t.HasProgress = true
		case "breaker-threshold":
			t.BreakerThreshold, err = strconv.Atoi(val)
			if err == nil && t.BreakerThreshold < 0 {
				err = fmt.Errorf("must be >= 0")
			}
			t.HasBreakerThreshold = true
		case "breaker-cooldown":
			t.BreakerCooldown, err = time.ParseDuration(val)
			if err == nil && t.BreakerCooldown < 0 {
				err = fmt.Errorf("must be >= 0")
			}
			t.HasBreakerCooldown = true
		default:
			return nil, fmt.Errorf("tunables line %d: unknown key %q", lineNo, key)
		}
		if err != nil {
			return nil, fmt.Errorf("tunables line %d: %s = %q: %v", lineNo, key, val, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read tunables: %w", err)
	}
	return t, nil
}

// loadTunables reads a tunables file from disk.
func loadTunables(path string) (*tunables, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open tunables: %w", err)
	}
	defer f.Close()
	return parseTunables(f)
}
