// Package targets holds the naming conventions of the paper's measurement
// targets (§3.2.1): canonical domain spelling and the conventional "www."
// prepending. The population itself — toplists plus CZDS zone files in the
// paper (§3.1) — is synthesised by internal/websim.
package targets

import "strings"

// Canonical lowercases a domain and strips any trailing dot.
func Canonical(domain string) string {
	return strings.ToLower(strings.TrimSuffix(strings.TrimSpace(domain), "."))
}

// PrependWWW adds the "www." label unless it is already present, following
// the paper's querying convention.
func PrependWWW(domain string) string {
	if strings.HasPrefix(domain, "www.") {
		return domain
	}
	return "www." + domain
}
