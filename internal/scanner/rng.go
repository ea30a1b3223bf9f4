package scanner

import (
	"quicspin/internal/core"
	"quicspin/internal/dice"
)

// fnv64a hashes s with FNV-1a (identical to hash/fnv's Sum64 over the same
// bytes) without the hasher allocation of the standard library.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// domainSeed derives the per-domain key seed from (Seed, Week, name). Every
// stream a domain's scan draws from is keyed by it (see internal/dice),
// which makes spin dice, response plans and path noise a function of the
// domain alone — not of scan order or worker count; the resume machinery
// relies on that.
func domainSeed(cfg *Config, name string) int64 {
	return cfg.Seed ^ int64(cfg.Week)<<32 ^ int64(fnv64a(name))
}

// domainDice holds an engine's per-domain streams, rekeyed at the start of
// every domain scan, and the domain's seed for the per-connection keys.
type domainDice struct {
	seed  int64
	retry *dice.Rand
	dns   *dice.Rand
}

func newDomainDice() domainDice {
	return domainDice{retry: dice.New(), dns: dice.New()}
}

// reseed keys the per-domain streams to the domain called name.
func (d *domainDice) reseed(cfg *Config, name string) {
	d.seed = domainSeed(cfg, name)
	d.retry.Reseed(dice.Key{Seed: d.seed, Purpose: dice.Retry})
	d.dns.Reseed(dice.Key{Seed: d.seed, Purpose: dice.DNS})
}

// conn returns the key of the domain's connection stream for purpose p on
// side, for the connection of redirect hop hop and retry attempt attempt.
func (d *domainDice) conn(p dice.Purpose, hop, attempt int, side dice.Side) dice.Key {
	return dice.Key{Seed: d.seed, Purpose: p, Hop: hop, Attempt: attempt, Side: side}
}

// ConnDice returns the spin controller that both engines roll for the
// server side of one connection of the domain called name, at redirect hop
// hop and retry attempt attempt, under policy p: its dice are the first
// draws of the connection's server-side transport stream. The differential
// test reads the disable-every-N roll and the per-connection grease value
// from it.
func ConnDice(cfg Config, name string, hop, attempt int, p core.Policy) *core.Controller {
	d := domainDice{seed: domainSeed(&cfg, name)}
	return core.NewController(false, p, dice.Seeded(d.conn(dice.Transport, hop, attempt, dice.Server)))
}
