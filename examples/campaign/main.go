// Campaign: a miniature version of the paper's weekly measurement — it
// generates a synthetic web at 1/20000 of the paper's population, scans
// it over fully emulated QUIC-lite connections, and prints the Table 1 /
// Table 2 / Table 3 views plus the Fig. 4 accuracy summary.
package main

import (
	"fmt"
	"log"
	"os"

	"quicspin/internal/analysis"
	"quicspin/internal/scanner"
	"quicspin/internal/websim"
)

func main() {
	prof := websim.DefaultProfile()
	prof.Scale = 20000 // ~11k domains: finishes in a couple of seconds
	fmt.Printf("generating a 1/%d-scale synthetic web...\n", prof.Scale)
	world := websim.Generate(prof)
	fmt.Printf("  %d domains, %d server IPs, %d organisations\n\n",
		len(world.Domains), world.NumServers(), len(world.Orgs))

	// Every scanned domain streams straight into the week's accumulator;
	// nothing per-domain is retained.
	acc := analysis.NewAccumulator(prof.Weeks, false, world.ASDB())
	must(scanner.RunStream(world, scanner.Config{
		Week:   prof.Weeks,
		Engine: scanner.EngineEmulated,
		Seed:   1,
	}, acc.Sink()))

	must(acc.RenderOverview().Render(os.Stdout))
	fmt.Println()
	must(acc.RenderOrgTable(8).Render(os.Stdout))
	fmt.Println()
	must(acc.RenderSpinConfig().Render(os.Stdout))
	fmt.Println()

	h := acc.Headlines()
	fmt.Printf("RTT accuracy over %d spinning connections (paper §5.2):\n", h.N)
	fmt.Printf("  overestimating the stack RTT:   %5.1f%%  (paper: 97.7%%)\n", h.OverestimateShare*100)
	fmt.Printf("  within 25%% of the stack RTT:    %5.1f%%  (paper: 30.5%%)\n", h.Within25pct*100)
	fmt.Printf("  within a factor of 2:           %5.1f%%  (paper: 36.0%%)\n", h.Within2x*100)
	fmt.Printf("  overestimating by >3x:          %5.1f%%  (paper: 51.7%%)\n", h.Over3x*100)
	fmt.Println("\nNote: at this small scale the per-organisation rows are noisy;")
	fmt.Println("run cmd/spinscan with -scale 2000 for the calibrated reproduction.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
