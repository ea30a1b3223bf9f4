package scanner

import (
	"math"
	"testing"

	"quicspin/internal/core"
)

// Fig. 2's reference model: RFC 9000 requires a spinning endpoint to disable
// the spin bit on at least one connection in 16, RFC 9312 recommends one in
// eight. With every server spinning under such a rule, the disabled share of
// a seeded week's connections is binomial at 1/N in both engines, and each
// connection's disabled flag — no spin flip from a server that spins — is
// the same in both, because both roll the dice on the connection's own
// server transport stream. Every page spans several round trips, so a
// connection that spins always shows a flip.
func TestComplianceDiceBinomial(t *testing.T) {
	w := quicWorld(3000)
	names := [2]string{"fast", "emulated"}
	for _, d := range w.Domains {
		d.BodyBytes = 32 << 10
	}
	for _, n := range []int{16, 8} {
		for _, s := range w.Servers() {
			s.Mode, s.DisableEveryN = core.ModeSpin, n
			s.SpinFromWeek, s.SpinToWeek = 1, w.Profile.Weeks
		}
		var flags [2][]bool
		for i, eng := range []Engine{EngineFast, EngineEmulated} {
			r := mustRun(t, w, Config{Week: 3, Engine: eng, Seed: 11, Workers: 2})
			disabled := 0
			for _, d := range r.Domains {
				for _, c := range d.Conns {
					if c.QUIC {
						flags[i] = append(flags[i], !c.HasFlips())
						if !c.HasFlips() {
							disabled++
						}
					}
				}
			}
			conns := len(flags[i])
			p := 1 / float64(n)
			se := math.Sqrt(p * (1 - p) / float64(conns))
			share := float64(disabled) / float64(conns)
			t.Logf("1-in-%d, %s: disabled %d/%d = %.4f", n, names[i], disabled, conns, share)
			if math.Abs(share-p) > 4*se {
				t.Errorf("1-in-%d, %s: disabled share %d/%d = %.4f, want %.4f ± %.4f", n, names[i], disabled, conns, share, p, 4*se)
			}
		}
		if len(flags[0]) != len(flags[1]) {
			t.Fatalf("1-in-%d: %d fast QUIC connections, %d emulated", n, len(flags[0]), len(flags[1]))
		}
		for j := range flags[0] {
			if flags[0][j] != flags[1][j] {
				t.Errorf("1-in-%d, connection %d: disabled fast %v, emulated %v", n, j, flags[0][j], flags[1][j])
			}
		}
	}
}
