// Command spinalyze consumes the qlog traces written by cmd/spinscan and
// regenerates the paper's tables and figures: the adoption overview
// (Tables 1/4), the AS-organisation attribution (Table 2, requires an
// asdb snapshot), the spin-configuration breakdown (Table 3), and the
// RTT-accuracy histograms (Figs. 3 and 4).
//
// Usage:
//
//	spinalyze -qlog-dir ./qlogs
//	spinalyze -qlog-dir ./qlogs -asdb ./asdb.txt -fig 4
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"quicspin/internal/analysis"
	"quicspin/internal/asdb"
	"quicspin/internal/scanner"
)

func main() {
	qlogDir := flag.String("qlog-dir", "", "directory with .qlog traces from spinscan (required)")
	asdbPath := flag.String("asdb", "", "asdb snapshot for Table 2 org attribution (optional)")
	table := flag.Int("table", 0, "render only this table (1-4; 0 = all)")
	fig := flag.Int("fig", 0, "render only this figure (3 or 4; 0 = all)")
	flag.Parse()

	if *qlogDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	files, err := filepath.Glob(filepath.Join(*qlogDir, "*.qlog"))
	if err != nil || len(files) == 0 {
		log.Fatalf("no .qlog files in %s (%v)", *qlogDir, err)
	}
	var readers []io.Reader
	var closers []io.Closer
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			log.Fatalf("open %s: %v", f, err)
		}
		readers = append(readers, fh)
		closers = append(closers, fh)
	}
	results, err := scanner.MergeQlogConns(readers)
	for _, c := range closers {
		c.Close()
	}
	if err != nil {
		log.Fatalf("parsing qlogs: %v", err)
	}
	// Table 2 attribution happens while folding, so the snapshot loads first;
	// without one the resolver stays nil and Table 2 is skipped.
	var resolver *asdb.Resolver
	if *asdbPath != "" {
		fh, err := os.Open(*asdbPath)
		if err != nil {
			log.Fatalf("open asdb: %v", err)
		}
		tbl, orgs, err := asdb.ReadSnapshot(fh)
		fh.Close()
		if err != nil {
			log.Fatalf("parse asdb: %v", err)
		}
		resolver = &asdb.Resolver{Table: tbl, Orgs: orgs}
	}
	camp := analysis.NewCampaignAccumulator()
	for _, res := range results {
		log.Printf("loaded week %d (ipv6=%v): %d domains", res.Week, res.IPv6, len(res.Domains))
		camp.StartWeek(res.Week, res.IPv6, resolver).AddResult(res)
	}
	weeks := camp.Weeks()
	wk := weeks[len(weeks)-1]

	show := func(n int) bool { return *table == 0 && *fig == 0 || *table == n }
	showFig := func(n int) bool { return *table == 0 && *fig == 0 || *fig == n }

	if show(1) || show(4) {
		if err := wk.RenderOverview().Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if show(2) {
		if resolver == nil {
			log.Print("skipping Table 2: no -asdb snapshot given")
		} else {
			if err := wk.RenderOrgTable(8).Render(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
	if show(3) {
		if err := wk.RenderSpinConfig().Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if err := wk.RenderSoftwareTable().Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if len(weeks) > 1 && (*table == 0 && *fig == 0 || *fig == 2) {
		if err := analysis.RenderLongitudinal(camp.Longitudinal()).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if showFig(3) {
		fmt.Print(camp.RenderAccuracy(3))
	}
	if showFig(4) {
		fmt.Print(camp.RenderAccuracy(4))
		h := camp.Headlines()
		fmt.Printf("headlines: n=%d overestimate=%.1f%% within-25ms=%.1f%% >200ms=%.1f%% within-25%%=%.1f%% within-2x=%.1f%% >3x=%.1f%%\n",
			h.N, h.OverestimateShare*100, h.Within25ms*100, h.Over200ms*100,
			h.Within25pct*100, h.Within2x*100, h.Over3x*100)
	}
}
