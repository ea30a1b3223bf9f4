package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

// TestMarshalDigests pins the bytes the shards exchange: the sha256 of
// CampaignAccumulator.Marshal for seeded 3-week scans, on both engines and
// both address families. The merge tests compare a blob only with its own
// round trip, so a change in what a fold keeps or in the order the codec
// writes it (the per-IP table above all) shows up here and nowhere else.
func TestMarshalDigests(t *testing.T) {
	want := map[string]string{
		"fast/v4":     "147524350f4775ced09fe027cff626fb4b528a2d111a94e958713d2f336e4407",
		"fast/v6":     "4bb3052dd8228bb93d4979464bc8df7adf6eddfe43dbc9184697a1d9fc43be8d",
		"emulated/v4": "a4272a1d82006bd959154501bd014b0a27f3d7df1bd8cfd3d14e299e008fe63f",
		"emulated/v6": "08eadf9267a3ae742521e27e222e00aef7a656316c01c33bb6a729a42c9da23d",
	}
	p := websim.DefaultProfile()
	p.Scale, p.Seed, p.HostileFrac = 20000, 3, 0.3
	engines := []struct {
		name string
		eng  scanner.Engine
	}{{"fast", scanner.EngineFast}, {"emulated", scanner.EngineEmulated}}
	// Both storages hold one population, so they ship the same bytes.
	for _, world := range []*websim.World{websim.Generate(p), websim.GenerateLazy(p)} {
		for _, e := range engines {
			for _, ipv6 := range []bool{false, true} {
				name := e.name + "/v4"
				if ipv6 {
					name = e.name + "/v6"
				}
				camp := NewCampaignAccumulator()
				for wk := 1; wk <= 3; wk++ {
					cfg := scanner.Config{Week: wk, IPv6: ipv6, Engine: e.eng, Seed: 3, Workers: 2}
					if err := scanner.RunStream(world, cfg, camp.StartWeek(wk, ipv6, world.ASDB()).Sink()); err != nil {
						t.Fatalf("%s week %d: %v", name, wk, err)
					}
				}
				sum := sha256.Sum256(camp.Marshal())
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s (lazy world %v): Marshal sha256 %s, want %s", name, world.Domains == nil, got, want[name])
				}
			}
		}
	}
}
