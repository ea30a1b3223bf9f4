package scanner

// EmulateAll returns cfg with every connection of the emulated engine on the
// packet path, the ones the closed form settles too.
func EmulateAll(cfg Config) Config {
	cfg.emulateAll = true
	return cfg
}
